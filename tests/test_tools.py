"""The scripts in tools/ still run against the library as it stands.

``kernel_probe`` patches the constants that pick ``inverse_cdf``'s strategy
and calls ``sampling._compose``; before it times anything it checks that
every strategy and map-block layout gives the same integers, and raises if
one does not. One repeat at two state counts runs those checks in about a
second. The pair tools run whole benchmarks or CLI recipes, so only their
``--help`` is run here.
"""

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


@pytest.mark.parametrize("name", ["cli_pairs.py", "bench_pairs.py"])
def test_pair_tool_help(name):
    done = run_tool(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "--parent" in done.stdout and "--change" in done.stdout
