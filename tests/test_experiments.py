import itertools
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cftp_rl
from cftp_rl import chains
from cftp_rl.apprenticeship import game_value_oracle
from cftp_rl.chains import DeterministicPolicy
from cftp_rl.experiments import runners
from cftp_rl.experiments.cli import build_parser, main
from cftp_rl.experiments.config import (
    COMMON_SPECS,
    PARAM_SPECS,
    POSITIVE,
    UNIT,
    ConfigError,
    at_least,
    build_config,
    one_of,
    read_config_file,
    thm8_budgets,
)
from cftp_rl.experiments.runners import _example_bias_floor
from cftp_rl.experiments.svg import line_chart
from cftp_rl.instances import random_mdp
from cftp_rl.solvers import bias_and_q


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_applied(self):
        config = build_config("example", {}, None)
        assert config.seed == 0
        assert config.replicates == 10
        assert config.param("t_guess") == [2, 4, 30]

    def test_file_then_flag_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed=5\nruns=1234\nt_guess=3,9\n")
        config = build_config("example", {"runs": "777"}, path)
        assert config.seed == 5
        assert config.param("runs") == 777  # flag wins over file
        assert config.param("t_guess") == [3, 9]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nonsense=1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config("example", {}, path)

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            build_config("example", {"runs": "-5"}, None)
        with pytest.raises(ConfigError):
            build_config("mwal", {"epsilon": "1.5"}, None)
        with pytest.raises(ConfigError):
            build_config("pg", {"instance": "bogus"}, None)

    def test_hash_ignores_jobs(self):
        one = build_config("example", {"jobs": 1}, None)
        two = build_config("example", {"jobs": 4}, None)
        assert one.config_hash() == two.config_hash()
        other = build_config("example", {"seed": 9}, None)
        assert other.config_hash() != one.config_hash()

    def test_config_file_round_trip(self, tmp_path):
        config = build_config("coalescence", {"sizes": "4,6"}, None)
        path = tmp_path / "echo.txt"
        path.write_text(config.resolved_text())
        values = read_config_file(path)
        assert values["sizes"] == "4,6"
        rebuilt = build_config("coalescence", {}, path)
        assert rebuilt.params == config.params

    def test_a_runs_config_txt_reproduces_it(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("pg", "--out", str(first), "--samples", "200", "--seed", "4") == 0
        assert "config_hash=" in (first / "config.txt").read_text()
        assert run_cli("pg", "--config", str(first / "config.txt"), "--out", str(second)) == 0
        files = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == files
        for name in files:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


    @pytest.mark.parametrize("subcommand", list(PARAM_SPECS))
    def test_each_subcommands_config_txt_rebuilds_its_config(self, subcommand, tmp_path):
        values = {"out": str(tmp_path / "run"), "seed": "7", "replicates": "2"}
        config = build_config(subcommand, values, None)
        path = runners._prepare_out(config) / "config.txt"
        rebuilt = build_config(subcommand, {"out": str(tmp_path / "rerun")}, path)
        assert rebuilt.resolved_text() == config.resolved_text()
        assert path.read_text() == rebuilt.resolved_text() + f"config_hash={rebuilt.config_hash()}\n"

    def test_a_config_hash_line_in_a_file_is_dropped_whatever_its_value(self, tmp_path):
        config = build_config("pg", {"seed": "3"}, None)
        path = tmp_path / "config.txt"
        path.write_text(config.resolved_text() + "config_hash=0000000000000000\n")
        rebuilt = build_config("pg", {}, path)
        assert rebuilt.config_hash() == config.config_hash() != "0000000000000000"

    def test_config_hash_is_not_a_parameter(self):
        with pytest.raises(ConfigError, match="unknown config key 'config_hash'"):
            build_config("pg", {"config_hash": "0000000000000000"}, None)


SPEC_PAIRS = [
    (sub, spec) for sub, specs in PARAM_SPECS.items() for spec in COMMON_SPECS + specs
]

# Numbers at and beyond every stated edge, and text that is no number at all.
NUMBERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.sampled_from([0, -1, 1, 2, 11, 0.0, 0.5, 2.5, 1e-300, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
).map(str)
VALUE_TEXT = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, max_size=3).map(",".join),
    st.text(alphabet="0123456789.,-+eEinfa x_", max_size=8),
)
CONFIG_FILE_IDS = itertools.count()


def built_value(config, name):
    common = {
        "seed": config.seed, "out": str(config.out_dir),
        "replicates": config.replicates, "jobs": config.jobs,
    }
    return common[name] if name in common else config.param(name)


def satisfies_declaration(spec, value) -> bool:
    entries = value if spec.many else [value]
    if spec.many and not (entries and len(set(entries)) == len(entries)):
        return False
    return all(
        isinstance(v, spec.kind) and (spec.within is None or spec.within.admits(v))
        for v in entries
    )


class TestParamSpecs:
    def test_ranges_at_their_edges(self):
        assert [at_least(2).admits(v) for v in (1, 2, 3)] == [False, True, True]
        for v in (0.0, 1.0, math.nan, math.inf, -0.5):
            assert not UNIT.admits(v), v
        assert UNIT.admits(0.5) and UNIT.admits(1e-300)
        for v in (0.0, -1.0, math.nan, math.inf):
            assert not POSITIVE.admits(v), v
        assert POSITIVE.admits(1e308) and POSITIVE.admits(5e-324)
        assert one_of("a", "b").admits("a") and not one_of("a", "b").admits("c")

    @pytest.mark.parametrize("sub,spec", SPEC_PAIRS, ids=lambda x: getattr(x, "name", x))
    def test_default_round_trips_through_its_own_range(self, sub, spec):
        text = ",".join(map(str, spec.default)) if spec.many else str(spec.default)
        assert spec.parse(text) == spec.default
        assert satisfies_declaration(spec, spec.default)
        config = build_config(sub, {}, None)
        assert built_value(config, spec.name) == spec.default

    def test_help_states_each_range(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
        for sub, specs in PARAM_SPECS.items():
            flags = {action.dest: action.help for action in subparsers[sub]._actions}
            for spec in COMMON_SPECS + specs:
                assert flags[spec.name] == spec.help_line()
                if spec.within is not None:
                    assert spec.within.text in spec.help_line()
            subparsers[sub].format_help()  # argparse %-formats every help line

    @settings(max_examples=300)
    @given(pair=st.sampled_from(SPEC_PAIRS), text=VALUE_TEXT, from_file=st.booleans())
    def test_flag_or_file_value_is_in_range_or_a_config_error(
        self, tmp_path_factory, pair, text, from_file
    ):
        sub, spec = pair
        if from_file:
            # A fresh file each time: truncating one in place is slow on some filesystems.
            path = tmp_path_factory.getbasetemp() / f"property-{next(CONFIG_FILE_IDS)}.cfg"
            path.write_text(f"{spec.name}={text}\n")
            args = ({}, path)
        else:
            args = ({spec.name: text}, None)
        try:
            config = build_config(sub, *args)
        except ConfigError:
            return
        assert satisfies_declaration(spec, built_value(config, spec.name)), text


class TestExampleRunner:
    def test_emits_four_curves_and_summary(self, tmp_path):
        assert run_cli("example", "--out", str(tmp_path), "--runs", "500", "--replicates", "3") == 0
        text = (tmp_path / "example_mse_vs_runs.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "estimator,runs,mse,se_mse,mean_steps"
        estimators = {line.split(",")[0] for line in lines[2:]}
        assert estimators == {"guess_2", "guess_4", "guess_30", "cftp"}
        assert (tmp_path / "example_mse_vs_steps.csv").exists()
        assert (tmp_path / "example_summary.csv").exists()
        assert (tmp_path / "config.txt").exists()

    def test_bias_floor_values(self):
        # mu0 = (0, 1): after 2 steps the state distribution is (1/2, 1/2),
        # so the expected reward is 1/2 and the floor is (1/2 - 2/3)^2 = 1/36.
        assert abs(_example_bias_floor(2) - 1.0 / 36.0) < 1e-15
        assert abs(_example_bias_floor(4) - (0.625 - 2.0 / 3.0) ** 2) < 1e-15

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "example", "--out", str(tmp_path / sub), "--runs", "300", "--replicates", "2"
            ) == 0
        for name in ("example_mse_vs_runs.csv", "example_mse_vs_steps.csv", "example_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        for sub, jobs in (("one", "1"), ("two", "2")):
            assert run_cli(
                "example", "--out", str(tmp_path / sub), "--runs", "300",
                "--replicates", "3", "--jobs", jobs,
            ) == 0
        assert (
            (tmp_path / "one" / "example_mse_vs_runs.csv").read_bytes()
            == (tmp_path / "two" / "example_mse_vs_runs.csv").read_bytes()
        )

    def test_pool_has_at_most_one_worker_per_replicate(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runners, "ProcessPoolExecutor", RecordingPool)
        for replicates, jobs in (("3", "8"), ("1", "8"), ("3", "2")):
            assert run_cli(
                "example", "--out", str(tmp_path / f"{replicates}-{jobs}"), "--runs", "20",
                "--replicates", replicates, "--jobs", jobs,
            ) == 0
        assert sizes == [3, 2]  # one replicate runs in this process

    def test_svg_is_a_pure_function_of_the_table(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("example", "--out", str(tmp_path / sub), "--runs", "300", "--replicates", "2")
        assert (
            (tmp_path / "a" / "example_mse_vs_runs.svg").read_bytes()
            == (tmp_path / "b" / "example_mse_vs_runs.svg").read_bytes()
        )


class TestOtherRunners:
    def test_coalescence_families(self, tmp_path):
        code = run_cli(
            "coalescence", "--out", str(tmp_path), "--runs", "100",
            "--sizes", "4", "--chains-per-size", "1",
            "--grand-sizes", "5", "--grand-runs", "30", "--lazy-eps", "0.4",
        )
        assert code == 0
        lines = (tmp_path / "coalescence.csv").read_text().splitlines()
        families = {line.split(",")[0] for line in lines[2:]}
        assert families == {"random", "lazy", "grand"}
        for name in ("coalescence_random.svg", "coalescence_lazy.svg", "coalescence_grand.svg"):
            ET.fromstring((tmp_path / name).read_text())  # well-formed XML

    def test_coalescence_cap_recorded_not_fatal(self, tmp_path):
        code = run_cli(
            "coalescence", "--out", str(tmp_path), "--runs", "50",
            "--sizes", "4", "--chains-per-size", "1",
            "--grand-sizes", "4", "--grand-runs", "10", "--lazy-eps", "0.3",
            "--step-cap", "8",
        )
        assert code == 0
        lines = (tmp_path / "coalescence.csv").read_text().splitlines()
        statuses = {line.split(",")[-1] for line in lines[2:]}
        assert "capped" in statuses

    def test_mwal_summary_schema(self, tmp_path):
        code = run_cli(
            "mwal", "--out", str(tmp_path), "--n-rounds", "20", "--m", "50", "--replicates", "2"
        )
        assert code == 0
        lines = (tmp_path / "mwal_summary.csv").read_text().splitlines()
        assert lines[1].split(",") == [
            "replicate", "n_rounds", "m", "beta", "v_star", "margin",
            "success", "expert_calls", "generative_calls",
        ]
        assert len(lines) == 2 + 2
        rounds = (tmp_path / "mwal_rounds.csv").read_text().splitlines()
        assert rounds[0].startswith("# config_hash=")
        assert rounds[1] == "t,w_0,w_1,rho_t,loss_0,loss_1"

    def test_mwal_gen_summary_schema(self, tmp_path):
        code = run_cli(
            "mwal-gen", "--out", str(tmp_path), "--n-rounds", "25", "--replicates", "1"
        )
        assert code == 0
        lines = (tmp_path / "mwal_gen_summary.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert "rescale_bound" in header and "tail_1b" in header and "n_clamped" in header

    def test_pg_components(self, tmp_path):
        code = run_cli("pg", "--out", str(tmp_path), "--samples", "2000")
        assert code == 0
        lines = (tmp_path / "pg_components.csv").read_text().splitlines()
        assert lines[1] == "instance,state,action,estimate,se,oracle,z,within_3se"
        instances = {line.split(",")[0] for line in lines[2:]}
        assert instances == {"single_state", "random"}

    def test_eval_store_comparison_row(self, tmp_path):
        code = run_cli(
            "eval-store", "--out", str(tmp_path), "--epsilon", "0.3", "--delta", "0.3",
            "--replicates", "1",
        )
        assert code == 0
        lines = (tmp_path / "eval_store_summary.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["shared_below_unshared"] == "1"
        assert int(row["shared_calls"]) < int(row["unshared_calls"])

    def test_eval_store_checks_each_policy_chain_once(self, tmp_path):
        """The exact oracle reads each policy's cache entry, which the store's
        coalescing checks then reuse: one ``closed_class`` call per policy."""
        with mock.patch("cftp_rl.chains.closed_class", wraps=chains.closed_class) as checks:
            code = run_cli(
                "eval-store", "--out", str(tmp_path), "--seed", "3", "--n-states", "6",
                "--epsilon", "0.25", "--delta", "0.25", "--replicates", "1",
            )
        assert code == 0
        assert checks.call_count == 2**6


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli("pg", "--out", str(tmp_path), "--samples", "200") == 0

    @pytest.mark.parametrize("sub", ["coalescence", "mwal", "mwal-gen", "pg", "eval-store"])
    def test_jobs_above_one_rejected_where_unsupported(self, sub, tmp_path):
        assert run_cli(sub, "--out", str(tmp_path / "flag"), "--jobs", "2") == 2
        assert not (tmp_path / "flag").exists()
        path = tmp_path / "cfg.txt"
        path.write_text("jobs=3\n")
        with pytest.raises(ConfigError, match="jobs must be 1"):
            build_config(sub, {}, path)
        assert build_config(sub, {"jobs": 1}, None).jobs == 1

    def test_validation_error_is_two(self, tmp_path):
        assert run_cli("example", "--out", str(tmp_path), "--replicates", "0") == 2
        assert run_cli("mwal", "--out", str(tmp_path), "--epsilon", "2.0") == 2
        # Only mwal derives n_rounds from 0; the lazy family needs the pair (0, 1).
        assert run_cli("mwal-gen", "--out", str(tmp_path), "--n-rounds", "0") == 2
        assert run_cli("coalescence", "--out", str(tmp_path), "--lazy-size", "1") == 2
        # Inputs that crashed, wrote nan or hit the oracle's enumeration limit
        # inside the runner; each must fail before its output directory exists.
        bad = [(sub, "--seed", "-1") for sub in
               ("example", "coalescence", "mwal", "mwal-gen", "pg", "eval-store")]
        bad += [(sub, "--instance-seed", "-1") for sub in ("mwal", "mwal-gen", "pg", "eval-store")]
        bad += [
            ("coalescence", "--lazy-eps", ""),
            # Repeated entries, and lazy_eps values that share a stream key.
            ("coalescence", "--sizes", "4,4"),
            ("coalescence", "--grand-sizes", "5,5"),
            ("coalescence", "--lazy-eps", "0.2,0.2"),
            ("coalescence", "--lazy-eps", "0.2,0.2004,0.2"),
            ("coalescence", "--lazy-eps", "0.2,0.2004"),
            ("example", "--t-guess", "2,2"),
            ("example", "--runs", "2"),
            ("example", "--runs", "12"),
            ("example", "--runs", "14"),
            ("example", "--runs", "10", "--t-guess", "2"),
            ("example", "--runs", "1000", "--t-guess", "2,500"),
            ("pg", "--samples", "1"),
            ("mwal", "--n-states", "9"),
            ("mwal-gen", "--n-states", "9"),
            # A rescale bound that overflows makes Hedge losses nan.
            ("mwal-gen", "--b", "inf"),
            ("mwal-gen", "--b", "1e308"),
        ]
        for i, argv in enumerate(bad):
            out = tmp_path / f"bad{i}"
            assert run_cli(*argv, "--out", str(out)) == 2, argv
            assert not out.exists(), argv

    def test_sizes_numpy_cannot_index_are_two(self, tmp_path):
        # n_rounds * k or m * n_states past intp's maximum must fail before
        # the output directory exists; at the defaults k = 2 and n_states = 4.
        limit = int(np.iinfo(np.intp).max)
        bad = [
            ("mwal", "--epsilon", "1e-12"),  # derived n_rounds and m near 1e26
            ("mwal", "--epsilon", "1e-200"),  # epsilon ** 2 underflows to 0
            ("mwal", "--n-rounds", str(limit // 2 + 1)),
            ("mwal", "--m", str(limit // 4 + 1)),
            ("mwal-gen", "--n-rounds", str(limit // 2 + 1)),
        ]
        for i, argv in enumerate(bad):
            out = tmp_path / f"bad{i}"
            assert run_cli(*argv, "--out", str(out)) == 2, argv
            assert not out.exists(), argv
        # At the limit validation passes; these budgets are never run.
        config = build_config("mwal", {"n_rounds": str(limit // 2), "m": str(limit // 4)}, None)
        assert config.mwal_budgets() == (limit // 2, limit // 4)
        build_config("mwal-gen", {"n_rounds": str(limit // 2)}, None)
        # Given values need no derived budget, however small epsilon is.
        config = build_config("mwal", {"epsilon": "1e-200", "n_rounds": "3", "m": "5"}, None)
        assert config.mwal_budgets() == (3, 5)
        assert build_config("mwal", {}, None).mwal_budgets() == thm8_budgets(0.1, 0.1, 2)

    def test_config_file_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a key value line\n")
        assert run_cli("example", "--out", str(tmp_path), "--config", str(bad)) == 2
        assert run_cli("example", "--out", str(tmp_path), "--config", str(tmp_path / "none")) == 2

    @pytest.mark.parametrize("line", ["seed=abc", "replicates=2.5", "jobs=x"])
    def test_bad_common_value_in_config_file_is_two(self, line, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli("example", "--out", str(out), "--config", str(path)) == 2
        assert not out.exists()

    def test_cap_exceedance_is_three(self, tmp_path):
        assert run_cli("pg", "--out", str(tmp_path), "--samples", "50", "--step-cap", "1") == 3


class TestSvg:
    def test_deterministic_and_well_formed(self):
        series = [("a", [1.0, 10.0, 100.0], [1.0, 0.1, 0.01]), ("b", [1.0, 100.0], [0.5, 0.05])]
        one = line_chart(series, "t", "x", "y", log_x=True, log_y=True)
        two = line_chart(series, "t", "x", "y", log_x=True, log_y=True)
        assert one == two
        root = ET.fromstring(one)
        assert root.tag.endswith("svg")
        assert len([el for el in root.iter() if el.tag.endswith("polyline")]) == 2

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart([("a", [], [])], "t", "x", "y")


# Run in a fresh interpreter: reports scipy's presence after the import and
# after each sampling subcommand, then the first LU solve and game LP.
_SCIPY_PROBE = """
import json, sys
import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import cftp_rl
report = {"import": scipy_loaded(), "codes": {}}
from cftp_rl.experiments.cli import main
for sub, extra in json.loads(sys.argv[2]).items():
    report["codes"][sub] = main([sub, "--out", sys.argv[1] + "/" + sub, "--seed", "3", *extra])
    report[sub] = scipy_loaded()
from cftp_rl.apprenticeship import game_value_oracle
from cftp_rl.chains import DeterministicPolicy
from cftp_rl.instances import random_mdp
from cftp_rl.solvers import bias_and_q
mdp = random_mdp(3, 2, np.random.default_rng(14), n_features=2)
policy = DeterministicPolicy(np.array([1, 0, 1]))
rho, h, q = bias_and_q(mdp, policy)
report["solve"] = [rho, h.tolist(), q.tolist(), game_value_oracle(mdp, policy).value]
print(json.dumps(report))
"""


def test_scipy_loads_only_for_lu_solve_and_game_lp(tmp_path):
    commands = {
        "coalescence": ["--runs", "40", "--sizes", "4", "--chains-per-size", "1",
                        "--grand-sizes", "5", "--grand-runs", "10", "--lazy-eps", "0.4"],
        "example": ["--runs", "200", "--replicates", "2"],
        "pg": ["--samples", "200"],
        "eval-store": ["--epsilon", "0.5", "--delta", "0.5", "--n-states", "3", "--replicates", "1"],
    }
    src = str(Path(cftp_rl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    assert report["codes"] == {sub: 0 for sub in commands}
    for sub in commands:
        assert report[sub] == [], f"{sub} loaded {report[sub][:3]}"
    mdp = random_mdp(3, 2, np.random.default_rng(14), n_features=2)
    policy = DeterministicPolicy(np.array([1, 0, 1]))
    rho, h, q = bias_and_q(mdp, policy)
    assert report["solve"] == [rho, h.tolist(), q.tolist(), game_value_oracle(mdp, policy).value]
