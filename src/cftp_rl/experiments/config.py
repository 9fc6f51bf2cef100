"""Experiment configuration: defaults, key=value file, flag overrides.

Resolution order is defaults, then the optional config file, then explicit
command-line flags. The fully resolved configuration is validated before
any sampling happens, echoed into the output directory as config.txt, and
hashed; every CSV the run emits carries the hash in a comment line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from ..apprenticeship import ENUMERATION_BUDGET


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


# Subcommands whose runner spreads replicates over --jobs worker processes.
PARALLEL_SUBCOMMANDS = ("example",)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part != ""]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part != ""]


@dataclass
class ParamSpec:
    name: str
    kind: type | str  # int, float, str, "int_list", "float_list"
    default: object
    help: str

    def parse(self, raw) -> object:
        try:
            if self.kind == "int_list":
                return _int_list(raw) if isinstance(raw, str) else list(raw)
            if self.kind == "float_list":
                return _float_list(raw) if isinstance(raw, str) else list(raw)
            return self.kind(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {self.name}: {raw!r}") from exc


ORACLE_SIZE_HELP = (
    "instance {} count; the exact game value enumerates n_actions ** n_states "
    f"policies, at most {ENUMERATION_BUDGET}"
)

PARAM_SPECS: dict[str, list[ParamSpec]] = {
    "example": [
        ParamSpec(
            "runs", int, 30_000,
            "samples per estimator per replicate (> 10, and runs * min(min(t_guess), 3) >= "
            "max(t_guess), so every guess finishes a run by the first step checkpoint; "
            ">= 15 at the default guesses)",
        ),
        ParamSpec(
            "t_guess", "int_list", [2, 4, 30],
            "distinct mixing-time guesses for the baselines (each 1 to 100: the step curve "
            "starts at 100 steps)",
        ),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap"),
    ],
    "coalescence": [
        ParamSpec(
            "sizes", "int_list", [5, 10, 20], "distinct state counts for random ergodic chains"
        ),
        ParamSpec("chains_per_size", int, 3, "independent chains per size"),
        ParamSpec("runs", int, 2000, "coalescence runs per chain"),
        ParamSpec("lazy_size", int, 20, "state count for the lazy-chain family (>= 2)"),
        ParamSpec(
            "lazy_eps", "float_list", [0.4, 0.2, 0.1],
            "distinct exit rates in (0, 1) for the lazy family (at least one; each keys its "
            "random stream by int(1000 * eps), so no two may share that key)",
        ),
        ParamSpec("grand_sizes", "int_list", [8, 16], "distinct state counts for grand couplings"),
        ParamSpec("grand_runs", int, 500, "grand-coupling runs per size"),
        ParamSpec("delta", float, 0.05, "tail level for reference thresholds"),
        ParamSpec("step_cap", int, 10_000_000, "per-run coalescence cap"),
    ],
    "mwal": [
        ParamSpec("epsilon", float, 0.1, "target optimality gap"),
        ParamSpec("delta", float, 0.1, "failure probability"),
        ParamSpec("k", int, 2, "feature dimension"),
        ParamSpec("n_rounds", int, 0, "rounds T; 0 derives (144/eps^2) log k"),
        ParamSpec("m", int, 0, "expert samples; 0 derives (18/eps^2) log(2k/delta)"),
        ParamSpec("n_states", int, 4, ORACLE_SIZE_HELP.format("state")),
        ParamSpec("n_actions", int, 2, ORACLE_SIZE_HELP.format("action")),
        ParamSpec("instance_seed", int, 7, "seed of the built-in instance generator (>= 0)"),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap"),
    ],
    "mwal-gen": [
        ParamSpec("epsilon", float, 0.15, "target optimality gap for the summary check"),
        ParamSpec("delta", float, 0.1, "failure probability"),
        ParamSpec("k", int, 2, "feature dimension"),
        ParamSpec("n_rounds", int, 1500, "rounds T >= 1 (desk-scale; no closed form)"),
        ParamSpec("b", float, 2.0, "high-probability bound parameter for the columns"),
        ParamSpec("n_states", int, 3, ORACLE_SIZE_HELP.format("state")),
        ParamSpec("n_actions", int, 2, ORACLE_SIZE_HELP.format("action")),
        ParamSpec("instance_seed", int, 11, "seed of the built-in instance generator (>= 0)"),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap"),
    ],
    "pg": [
        ParamSpec("samples", int, 50_000, "gradient samples per instance (>= 2)"),
        ParamSpec("instance", str, "both", "single_state, random, or both"),
        ParamSpec("n_states", int, 3, "random-instance state count"),
        ParamSpec("n_actions", int, 2, "random-instance action count"),
        ParamSpec("instance_seed", int, 5, "seed of the built-in instance generator (>= 0)"),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap"),
    ],
    "eval-store": [
        ParamSpec("epsilon", float, 0.1, "simultaneous accuracy target"),
        ParamSpec("delta", float, 0.1, "failure probability"),
        ParamSpec("n_states", int, 3, "instance state count"),
        ParamSpec("n_actions", int, 2, "instance action count"),
        ParamSpec("instance_seed", int, 3, "seed of the built-in instance generator (>= 0)"),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap"),
    ],
}


@dataclass
class ExperimentConfig:
    subcommand: str
    seed: int = 0
    out_dir: Path = Path("out")
    replicates: int = 10
    jobs: int = 1
    params: dict = field(default_factory=dict)

    def param(self, name: str):
        return self.params[name]

    def resolved_text(self) -> str:
        lines = [
            f"subcommand={self.subcommand}",
            f"seed={self.seed}",
            f"replicates={self.replicates}",
            f"jobs={self.jobs}",
        ]
        for key in sorted(self.params):
            value = self.params[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        # jobs affects scheduling only, never output; keep it out of the hash.
        text = "\n".join(
            line for line in self.resolved_text().splitlines() if not line.startswith("jobs=")
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def validate(self) -> None:
        if self.subcommand not in PARAM_SPECS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.jobs > 1 and self.subcommand not in PARALLEL_SUBCOMMANDS:
            raise ConfigError(f"{self.subcommand} runs in one process; jobs must be 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        p = self.params
        if p.get("instance_seed", 0) < 0:
            raise ConfigError(f"instance_seed must be >= 0, got {p['instance_seed']}")
        positive = {
            "runs", "chains_per_size", "lazy_size", "grand_runs", "step_cap",
            "samples", "n_states", "n_actions", "k", "b",
        }
        for key, value in p.items():
            if key in positive and not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"{key} must be positive, got {value!r}")
        for key in ("epsilon", "delta"):
            if key in p and not 0.0 < p[key] < 1.0:
                raise ConfigError(f"{key} must lie in (0, 1), got {p[key]!r}")
        for key in ("sizes", "grand_sizes", "t_guess"):
            if key in p and (not p[key] or any(v < 1 for v in p[key])):
                raise ConfigError(f"{key} must be a non-empty list of positive integers")
            if key in p and len(set(p[key])) < len(p[key]):
                raise ConfigError(f"{key} must not repeat an entry, got {p[key]}")
        if "lazy_eps" in p:
            if not p["lazy_eps"] or any(not 0 < e < 1 for e in p["lazy_eps"]):
                raise ConfigError("lazy_eps must be a non-empty list of values in (0, 1)")
            stream_keys = [int(1000 * e) for e in p["lazy_eps"]]
            if len(set(stream_keys)) < len(stream_keys):
                raise ConfigError(
                    "lazy_eps values must differ in their stream key int(1000 * eps), "
                    f"got {p['lazy_eps']}"
                )
        if "instance" in p and p["instance"] not in ("single_state", "random", "both"):
            raise ConfigError("instance must be single_state, random, or both")
        if "n_rounds" in p and p["n_rounds"] < 0:
            raise ConfigError("n_rounds must be >= 0")
        if self.subcommand == "mwal-gen" and p.get("n_rounds") == 0:
            raise ConfigError("n_rounds must be >= 1 for mwal-gen; only mwal derives it from 0")
        if "lazy_size" in p and p["lazy_size"] < 2:
            raise ConfigError("lazy_size must be >= 2: the lazy family measures the pair (0, 1)")
        if "m" in p and p["m"] < 0:
            raise ConfigError("m must be >= 0")
        if self.subcommand == "example":
            runs, guesses = p["runs"], p["t_guess"]
            # The run curve fits its tail slope to the checkpoints in the last
            # decade of runs, two of them only when runs > 10. The step curve
            # starts at min(100, fewest total steps), and a CFTP run costs at
            # least 3 steps, so every guess ends a run by then under this rule.
            if runs <= 10:
                raise ConfigError(f"runs must be > 10 for the tail slope, got {runs}")
            first_checkpoint = min(100, runs * min(min(guesses), 3))
            if first_checkpoint < max(guesses):
                raise ConfigError(
                    "every guess must finish a run by the first step checkpoint: need "
                    f"min(100, runs * min(min(t_guess), 3)) >= max(t_guess) = {max(guesses)}, "
                    f"got {first_checkpoint}"
                )
        if self.subcommand == "pg" and p["samples"] < 2:
            raise ConfigError("samples must be >= 2 for a standard error")
        if self.subcommand in ("mwal", "mwal-gen"):
            n, a = p["n_states"], p["n_actions"]
            # For a >= 2, a ** bit_length(budget) already exceeds the budget,
            # so capping the exponent there keeps the power small and changes
            # no verdict.
            if a ** min(n, ENUMERATION_BUDGET.bit_length()) > ENUMERATION_BUDGET:
                raise ConfigError(
                    f"the exact game value enumerates n_actions ** n_states = {a} ** {n} "
                    f"policies, more than the oracle's limit of {ENUMERATION_BUDGET}"
                )


def read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (want key=value): {raw_line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(subcommand: str, cli_values: dict, file_path: Path | None) -> ExperimentConfig:
    """Merge defaults, config-file values, and explicit CLI flags."""
    specs = {spec.name: spec for spec in PARAM_SPECS[subcommand]}
    common = {"seed": 0, "out": "out", "replicates": 10, "jobs": 1}
    file_values = read_config_file(file_path) if file_path else {}

    merged: dict[str, object] = {name: spec.default for name, spec in specs.items()}
    merged.update(common)
    for key, value in file_values.items():
        if key in specs:
            merged[key] = specs[key].parse(value)
        elif key in common:
            merged[key] = int(value) if key in ("seed", "replicates", "jobs") else value
        elif key == "subcommand":
            if value != subcommand:
                raise ConfigError(f"config file is for {value!r}, not {subcommand!r}")
        else:
            raise ConfigError(f"unknown config key {key!r} for {subcommand}")
    for key, value in cli_values.items():
        if value is None:
            continue
        if key in specs:
            merged[key] = specs[key].parse(value)
        elif key in common:
            merged[key] = value

    config = ExperimentConfig(
        subcommand=subcommand,
        seed=int(merged["seed"]),
        out_dir=Path(merged["out"]),
        replicates=int(merged["replicates"]),
        jobs=int(merged["jobs"]),
        params={name: merged[name] for name in specs},
    )
    config.validate()
    return config
