import importlib
import re
import shlex
from pathlib import Path

import pytest

from cftp_rl.experiments.cli import build_parser
from cftp_rl.experiments.config import COMMON_SPECS, PARAM_SPECS, build_config

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# The module list: one "- **`name`**: ..." bullet per module.
MODULES = re.findall(r"^- \*\*`(\w+)`\*\*", TEXT, flags=re.M)
# The CLI table: one "| `name` | ... |" row per subcommand.
TABLE_SUBCOMMANDS = re.findall(r"^\| `([\w-]+)`\s*\|", TEXT, flags=re.M)
# Example runs in the code blocks; the usage line's "<subcommand>" is not one.
EXAMPLE_RUNS = re.findall(r"^(cftp-rl [a-z][^\n]*)$", TEXT, flags=re.M)


def test_quick_start_runs():
    """README's python block runs as written, so it names only functions that exist."""
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})


@pytest.mark.parametrize("name", MODULES)
def test_each_module_named_exists_and_has_a_docstring(name):
    """README points to each module's docstring for the details, so the docstring must exist."""
    module = importlib.import_module(f"cftp_rl.{name}")
    assert module.__doc__ and module.__doc__.strip()


def test_the_cli_table_lists_each_subcommand_once():
    assert TABLE_SUBCOMMANDS == list(PARAM_SPECS)


def test_the_usage_line_names_only_common_flags():
    usage = re.search(r"^cftp-rl <subcommand> (.*?)\n```", TEXT, flags=re.M | re.S).group(1)
    flags = set(re.findall(r"--([\w-]+)", usage))
    assert flags == {"config"} | {spec.name.replace("_", "-") for spec in COMMON_SPECS}


@pytest.mark.parametrize("line", EXAMPLE_RUNS)
def test_each_example_run_is_a_valid_configuration(line):
    """Parse and check the example's flags as the CLI does, without running it."""
    args = vars(build_parser().parse_args(shlex.split(line)[1:]))
    subcommand, config_file = args.pop("subcommand"), args.pop("config")
    assert config_file is None
    build_config(subcommand, args, None)
