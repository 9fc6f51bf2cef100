"""Experiment configuration: defaults, key=value file, flag overrides.

Resolution order is defaults, then the optional config file, then explicit
command-line flags. Each ParamSpec checks its range as its value is read,
and validate() checks the rules that tie parameters together, all before
any sampling happens. The resolved configuration is echoed into the output
directory as config.txt and hashed; every CSV the run emits carries the
hash in a comment line.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..apprenticeship import ENUMERATION_BUDGET


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class Range:
    """The values a parameter admits, and the text that states them in --help."""

    text: str
    admits: Callable[[object], bool]


def at_least(low: int) -> Range:
    return Range(f">= {low}", lambda value: value >= low)


def one_of(*choices: str) -> Range:
    return Range("one of " + ", ".join(choices), lambda value: value in choices)


# NaN fails every comparison, so neither range admits it.
UNIT = Range("in (0, 1)", lambda value: 0.0 < value < 1.0)
POSITIVE = Range("> 0 and finite", lambda value: 0.0 < value < math.inf)


@dataclass(frozen=True)
class ParamSpec:
    """One parameter, declared once: its type, default, help and range.

    A list parameter (``many``) is written comma-separated; it names at
    least one entry, repeats none, and each entry lies in ``within``.
    """

    name: str
    kind: type  # int, float or str; for a list, the type of each entry
    default: object
    help: str
    within: Range | None = None
    many: bool = False

    def parse(self, raw) -> object:
        """Read a flag or config-file value; raise ConfigError unless it is in range."""
        parts = [part for part in str(raw).split(",") if part != ""] if self.many else [str(raw)]
        try:
            values = [self.kind(part) for part in parts]
        except ValueError as exc:
            raise ConfigError(f"bad value for {self.name}: {raw!r}") from exc
        if not values:
            raise ConfigError(f"{self.name} must name at least one entry")
        if len(set(values)) < len(values):
            raise ConfigError(f"{self.name} must not repeat an entry, got {values}")
        for value in values:
            if self.within is not None and not self.within.admits(value):
                raise ConfigError(f"{self.name} must be {self.within.text}, got {value!r}")
        return values if self.many else values[0]

    def help_line(self) -> str:
        if self.many:
            within = f"; comma-separated, distinct, each {self.within.text}"
            default = ",".join(map(str, self.default))
        else:
            within = f"; {self.within.text}" if self.within else ""
            default = self.default
        return f"{self.help}{within} (default {default})"


ORACLE_SIZE_HELP = (
    "instance {} count; the exact game value enumerates n_actions ** n_states "
    f"policies, at most {ENUMERATION_BUDGET}"
)

# Every subcommand takes these; all but out enter config.txt.
COMMON_SPECS = [
    ParamSpec("seed", int, 0, "master seed", at_least(0)),
    ParamSpec("out", str, "out", "output directory"),
    ParamSpec("replicates", int, 10, "independent replicates", at_least(1)),
    ParamSpec(
        "jobs", int, 1,
        "worker processes over replicates, at most one per replicate; only example takes more "
        "than 1", at_least(1),
    ),
]

PARAM_SPECS: dict[str, list[ParamSpec]] = {
    "example": [
        ParamSpec(
            "runs", int, 30_000,
            "samples per estimator per replicate (11 give the tail slope two checkpoints; "
            "runs * min(min(t_guess), 3) >= max(t_guess) lets every guess finish a run by the "
            "first step checkpoint: >= 15 at the default guesses)", at_least(11),
        ),
        ParamSpec(
            "t_guess", int, [2, 4, 30], "mixing-time guesses for the baselines (at most 100: "
            "the step curve starts at 100 steps)", at_least(1), many=True,
        ),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap", at_least(1)),
    ],
    "coalescence": [
        ParamSpec("sizes", int, [5, 10, 20], "random-chain state counts", at_least(1), many=True),
        ParamSpec("chains_per_size", int, 3, "independent chains per size", at_least(1)),
        ParamSpec("runs", int, 2000, "coalescence runs per chain", at_least(1)),
        ParamSpec("lazy_size", int, 20, "lazy-family state count, for the pair (0, 1)", at_least(2)),
        ParamSpec(
            "lazy_eps", float, [0.4, 0.2, 0.1],
            "exit rates for the lazy family (each keys its random stream by int(1000 * eps), "
            "so no two may share that key)", UNIT, many=True,
        ),
        ParamSpec("grand_sizes", int, [8, 16], "grand-coupling state counts", at_least(1), many=True),
        ParamSpec("grand_runs", int, 500, "grand-coupling runs per size", at_least(1)),
        ParamSpec("delta", float, 0.05, "tail level for reference thresholds", UNIT),
        ParamSpec("step_cap", int, 10_000_000, "per-run coalescence cap", at_least(1)),
    ],
    "mwal": [
        ParamSpec("epsilon", float, 0.1, "target optimality gap", UNIT),
        ParamSpec("delta", float, 0.1, "failure probability", UNIT),
        ParamSpec("k", int, 2, "feature dimension", at_least(1)),
        ParamSpec("n_rounds", int, 0, "rounds T; 0 derives (144/eps^2) log k", at_least(0)),
        ParamSpec("m", int, 0, "expert samples; 0 derives (18/eps^2) log(2k/delta)", at_least(0)),
        ParamSpec("n_states", int, 4, ORACLE_SIZE_HELP.format("state"), at_least(1)),
        ParamSpec("n_actions", int, 2, ORACLE_SIZE_HELP.format("action"), at_least(1)),
        ParamSpec("instance_seed", int, 7, "seed of the built-in instance generator", at_least(0)),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap", at_least(1)),
    ],
    "mwal-gen": [
        ParamSpec("epsilon", float, 0.15, "target optimality gap for the summary check", UNIT),
        ParamSpec("delta", float, 0.1, "failure probability", UNIT),
        ParamSpec("k", int, 2, "feature dimension", at_least(1)),
        ParamSpec("n_rounds", int, 1500, "rounds T (desk-scale; no closed form)", at_least(1)),
        ParamSpec(
            "b", float, 2.0, "high-probability bound parameter for the columns; Hedge rescales "
            "them by 2 b log(2 T k / delta), which must be finite", POSITIVE,
        ),
        ParamSpec("n_states", int, 3, ORACLE_SIZE_HELP.format("state"), at_least(1)),
        ParamSpec("n_actions", int, 2, ORACLE_SIZE_HELP.format("action"), at_least(1)),
        ParamSpec("instance_seed", int, 11, "seed of the built-in instance generator", at_least(0)),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap", at_least(1)),
    ],
    "pg": [
        ParamSpec(
            "samples", int, 50_000, "gradient samples per instance (two for a standard error)",
            at_least(2),
        ),
        ParamSpec(
            "instance", str, "both", "instances to run", one_of("single_state", "random", "both")
        ),
        ParamSpec("n_states", int, 3, "random-instance state count", at_least(1)),
        ParamSpec("n_actions", int, 2, "random-instance action count", at_least(1)),
        ParamSpec("instance_seed", int, 5, "seed of the built-in instance generator", at_least(0)),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap", at_least(1)),
    ],
    "eval-store": [
        ParamSpec("epsilon", float, 0.1, "simultaneous accuracy target", UNIT),
        ParamSpec("delta", float, 0.1, "failure probability", UNIT),
        ParamSpec("n_states", int, 3, "instance state count", at_least(1)),
        ParamSpec("n_actions", int, 2, "instance action count", at_least(1)),
        ParamSpec("instance_seed", int, 3, "seed of the built-in instance generator", at_least(0)),
        ParamSpec("step_cap", int, 1_000_000, "per-run coalescence cap", at_least(1)),
    ],
}


def thm8_budgets(epsilon: float, delta: float, k: int) -> tuple[int, int]:
    """Theorem 8's budgets: rounds T and expert samples m for mwal.

    T = (144 / eps^2) log max(k, 2) and m = (18 / eps^2) log(2 k / delta),
    each rounded up and at least 1. Raises ZeroDivisionError when eps^2
    underflows to 0 and OverflowError when a budget overflows to infinity.
    """
    n_rounds = max(1, math.ceil(144.0 / epsilon**2 * math.log(max(k, 2))))
    m = max(1, math.ceil(18.0 / epsilon**2 * math.log(2 * k / delta)))
    return n_rounds, m


@dataclass
class ExperimentConfig:
    subcommand: str
    seed: int
    out_dir: Path
    replicates: int
    jobs: int
    params: dict

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

    def mwal_budgets(self) -> tuple[int, int]:
        """mwal's rounds and expert samples: each value given, else ``thm8_budgets``'s."""
        n_rounds, m = self.params["n_rounds"], self.params["m"]
        if not (n_rounds and m):
            derived = thm8_budgets(self.params["epsilon"], self.params["delta"], self.params["k"])
            n_rounds, m = n_rounds or derived[0], m or derived[1]
        return n_rounds, m

    def validate(self) -> None:
        """Check the rules that tie parameters together; each ParamSpec checks its own range."""
        p = self.params
        if self.jobs > 1 and self.subcommand != "example":
            raise ConfigError(f"{self.subcommand} runs in one process; jobs must be 1")
        if "lazy_eps" in p:
            stream_keys = [int(1000 * e) for e in p["lazy_eps"]]
            if len(set(stream_keys)) < len(stream_keys):
                raise ConfigError(
                    "lazy_eps values must differ in their stream key int(1000 * eps), "
                    f"got {p['lazy_eps']}"
                )
        if self.subcommand == "example":
            guesses = p["t_guess"]
            # The step curve starts at min(100, fewest total steps), and a
            # CFTP run costs at least 3 steps, so every guess ends a run by
            # then under this rule.
            first_checkpoint = min(100, p["runs"] * min(min(guesses), 3))
            if first_checkpoint < max(guesses):
                raise ConfigError(
                    "every guess must finish a run by the first step checkpoint: need "
                    f"min(100, runs * min(min(t_guess), 3)) >= max(t_guess) = {max(guesses)}, "
                    f"got {first_checkpoint}"
                )
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
            # The learners hold (n_rounds, k) arrays, and mwal's expert CFTP
            # m * n_states map entries; numpy indexes at most intp's maximum.
            n_rounds, m = p["n_rounds"], 0
            if self.subcommand == "mwal":
                try:
                    n_rounds, m = self.mwal_budgets()
                except (ZeroDivisionError, OverflowError):
                    n_rounds = m = math.inf
            limit = int(np.iinfo(np.intp).max)
            for name, size in (("n_rounds * k", n_rounds * p["k"]), ("m * n_states", m * n)):
                if size > limit:
                    raise ConfigError(f"{name} = {size} exceeds numpy's largest index, {limit}")
        if self.subcommand == "mwal-gen":
            # Hedge divides by 2B, B = b log(2 T k / delta); math.log takes any int.
            bound = p["b"] * (math.log(2 * p["n_rounds"] * p["k"]) - math.log(p["delta"]))
            if not 2.0 * bound < math.inf:
                raise ConfigError(
                    "Hedge rescales by 2 b log(2 n_rounds k / delta), which must be finite; "
                    f"got b = {p['b']!r}"
                )


def read_config_file(path: Path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    values: dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (want key=value): {raw_line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(subcommand: str, cli_values: dict, file_path: Path | None) -> ExperimentConfig:
    """Merge defaults, config-file values, and explicit CLI flags (None means unset)."""
    specs = {spec.name: spec for spec in COMMON_SPECS + PARAM_SPECS[subcommand]}
    file_values = read_config_file(file_path) if file_path else {}
    file_subcommand = file_values.pop("subcommand", subcommand)
    if file_subcommand != subcommand:
        raise ConfigError(f"config file is for {file_subcommand!r}, not {subcommand!r}")

    merged = {name: spec.default for name, spec in specs.items()}
    for values in (file_values, cli_values):
        for key, value in values.items():
            if key not in specs:
                raise ConfigError(f"unknown config key {key!r} for {subcommand}")
            if value is not None:
                merged[key] = specs[key].parse(value)

    config = ExperimentConfig(
        subcommand=subcommand,
        seed=merged.pop("seed"),
        out_dir=Path(merged.pop("out")),
        replicates=merged.pop("replicates"),
        jobs=merged.pop("jobs"),
        params=merged,
    )
    config.validate()
    return config
