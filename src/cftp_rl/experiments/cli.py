"""Batch CLI: launch seeded experiments, read back CSV tables and SVG charts.

Exit codes: 0 success, 2 configuration/validation error, 3 a sampling step
cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import CapExceededError
from .config import COMMON_SPECS, PARAM_SPECS, ConfigError, build_config
from .runners import RUNNERS

CSV_SCHEMAS = {
    "example": (
        "example_mse_vs_runs.csv: estimator,runs,mse,se_mse,mean_steps; "
        "example_mse_vs_steps.csv: estimator,steps,mse,se_mse,mean_runs; "
        "example_summary.csv: estimator,bias_floor,final_mse_vs_runs,tail_loglog_slope"
    ),
    "coalescence": (
        "coalescence.csv: family,size,chain_id,eps,t_mix,mean_tc,q50,q90,q99,"
        "mean_bound,tail_threshold,exceed_frac,n_runs,status "
        "(status=capped marks rows whose runs hit the step cap; never fatal)"
    ),
    "mwal": (
        "mwal_rounds.csv: t,w_*,rho_t,loss_*; mwal_summary.csv: replicate,"
        "n_rounds,m,beta,v_star,margin,success,expert_calls,generative_calls"
    ),
    "mwal-gen": (
        "mwal_gen_rounds.csv: t,w_*,rho_t,loss_*,g_*,clamped_*; mwal_gen_summary.csv: "
        "replicate,n_rounds,b,rescale_bound,v_star,margin,success,n_clamped,"
        "tail_1b..tail_4b,expert_calls,generative_calls"
    ),
    "pg": "pg_components.csv: instance,state,action,estimate,se,oracle,z,within_3se",
    "eval-store": (
        "eval_store_policies.csv: replicate,policy,estimate,exact,abs_err; "
        "eval_store_summary.csv: replicate,n_copies,max_err,within_eps,"
        "shared_calls,unshared_calls,shared_below_unshared (unshared_calls: CFTP per policy "
        "on maps of its own at the shared run's t_c; paired, not drawn independently)"
    ),
}

DESCRIPTIONS = {
    "example": "Estimator-bias study on the two-state chain: mixing-time guesses vs CFTP.",
    "coalescence": "Coalescence-time scaling for pairwise and grand couplings.",
    "mwal": "Apprenticeship via up-front expert feature estimation (CFTP sampling).",
    "mwal-gen": "Apprenticeship via per-round unbiased game-column samples.",
    "pg": "Unbiased policy-gradient estimator vs exact finite-difference gradients.",
    "eval-store": "Shared sample matrix vs unshared CFTP per policy: accuracy and call counts.",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cftp-rl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, specs in PARAM_SPECS.items():
        cmd = sub.add_parser(
            name,
            help=DESCRIPTIONS[name],
            description=DESCRIPTIONS[name] + "\n\nEmitted CSVs:\n  " + CSV_SCHEMAS[name],
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        cmd.add_argument("--config", help="key=value config file; flags override it")
        for spec in COMMON_SPECS + specs:
            flag = "--" + spec.name.replace("_", "-")
            cmd.add_argument(flag, dest=spec.name, help=spec.help_line())
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    subcommand, config_file = args.pop("subcommand"), args.pop("config")
    try:
        config = build_config(subcommand, args, Path(config_file) if config_file else None)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        RUNNERS[subcommand](config)
    except CapExceededError as exc:
        print(f"sampling cap exceeded: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
