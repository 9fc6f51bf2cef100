"""The scripts in tools/ still run against the library as it stands.

``kernel_probe`` patches the constants that pick ``inverse_cdf``'s strategy
and calls ``sampling._compose``; before it times anything it checks that
every strategy and map-block layout gives the same integers, and raises if
one does not. One repeat at two state counts runs those checks in about a
second. The pair tools run whole benchmarks or CLI recipes, so only their
``--help`` is run here, ``bench_pairs``'s verdict rule is checked on
synthetic summaries, and ``cli_pairs``'s ``--expect-diff`` rule on
synthetic lists of differing files and flags.
"""

import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *args):
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_kernel_probe_checks_every_strategy_and_layout():
    done = run_tool("kernel_probe.py", "--repeat", "1", "--states", "2,12")
    assert done.returncode == 0, done.stderr
    assert "chosen" in done.stdout
    assert "search_wins  search_chosen" in done.stdout


@pytest.mark.parametrize("name", ["cli_pairs.py", "bench_pairs.py"])
def test_pair_tool_help(name):
    done = run_tool(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "--parent" in done.stdout and "--change" in done.stdout


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent_runs, change_runs, bound, verdict", [
    # Won 10 of 10, gap 0.45 > parent IQR 0.02: claim met.
    ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [0.55, 0.56, 0.54, 0.57, 0.53] * 2, 0.24, "claim met"),
    # Won 9 of 10, still met; 8 of 10 is not.
    ([1.0] * 10, [0.5] * 9 + [1.1], 0.24, "claim met"),
    ([1.0] * 10, [0.5] * 8 + [1.1] * 2, 0.24, "within bound"),
    # A gain no wider than the parent's IQR is not a claim.
    ([0.9, 1.0, 1.1] * 3 + [1.0], [0.88, 0.98, 1.08] * 3 + [0.98], 0.24, "within bound"),
    # Median 25% worse against a 24% bound.
    ([1.0] * 10, [1.25] * 10, 0.24, "beyond bound"),
    ([1.0] * 10, [1.2] * 10, 0.24, "within bound"),
    # The parent's IQR (1.0, as wide as its median) is wider than the bound ...
    ([0.5, 1.5, 1.0, 0.4, 1.6] * 2, [0.9, 1.0, 1.1, 0.95, 1.05] * 2, 0.24, "unresolved"),
    # ... unless every change run beats every parent run; a median gap of
    # 0.7 inside that IQR of 1.0 is still no claim.
    ([0.5, 1.5, 1.0, 0.4, 1.6] * 2, [0.1, 0.2, 0.3, 0.25, 0.15] * 2, 0.24, "within bound"),
    # A metric without a bound is judged on the claim rule alone.
    ([0.5, 1.5, 1.0, 0.4, 1.6] * 2, [0.9, 1.0, 1.1, 0.95, 1.05] * 2, None, "within bound"),
])
def test_bench_pairs_verdict(parent_runs, change_runs, bound, verdict):
    tool = load_tool("bench_pairs")
    gaps = [p - c for p, c in zip(parent_runs, change_runs)]
    got = tool.acceptance_verdict(
        tool.quartiles(parent_runs), tool.quartiles(change_runs), sum(g > 0 for g in gaps),
        len(gaps), statistics.median(gaps), bound,
    )
    assert got == verdict


@pytest.mark.parametrize("differ, flags, expected, breaches", [
    # Exactly the named subcommand's outputs differ, at both configs or one.
    (["mwal-gen-default/mwal_rounds.csv", "mwal-gen-t12/mwal_rounds.csv"], [], ["mwal-gen"], []),
    (["mwal-gen-t12/mwal_summary.csv (only in change)"], [], ["mwal-gen"], []),
    # A file of another subcommand differs; "mwal-" is not "mwal-gen-".
    (["mwal-gen-t12/a.csv", "mwal-t12/a.csv"], [], ["mwal-gen"], ["mwal-t12/a.csv (not expected)"]),
    (["mwal-gen-t12/a.csv"], [], ["mwal"], ["mwal-gen-t12/a.csv (not expected)",
                                            "mwal (expected a diff, none found)"]),
    # A named subcommand with no differing file, and nothing differing at all.
    (["pg-t12/pg.csv"], [], ["pg", "mwal-gen"], ["mwal-gen (expected a diff, none found)"]),
    ([], [], ["pg"], ["pg (expected a diff, none found)"]),
    # No flag may differ.
    (["pg-default/pg.csv"], ["pg --samples"], ["pg"], ["pg --samples (not expected)"]),
    # A repeated name counts once.
    (["pg-default/pg.csv", "eval-store-t12/x.csv"], [], ["pg", "eval-store", "pg"], []),
])
def test_cli_pairs_expected_diff(differ, flags, expected, breaches):
    assert load_tool("cli_pairs").expected_diff_breaches(differ, flags, expected) == breaches
