"""Run the CLI recipe in two checkouts and list every output file that differs.

Usage, from anywhere:

    python3 tools/cli_pairs.py --parent DIR --change DIR [--expect-diff SUB ...]

DIR is the root of a checkout (e.g. ``git archive <commit> | tar -x -C DIR``).
In each checkout it runs the six subcommands at the test_12 configs and at
their defaults, writing into a temporary directory. It then compares the
two output trees file by file: every CSV, SVG and ``config.txt``. It also
reads the ``--flag`` tokens of each side's ``<subcommand> --help`` and
compares the two flag sets. It first prints each run's wall seconds and
peak RSS on both sides: the seconds timed around its subprocess
(interpreter start included), the RSS the child's ``ru_maxrss`` from
``os.wait4``, in MB. Each side's total seconds and largest peak follow.
Then it prints one line per file that differs or exists
on one side only, then a count, then one line per flag that exists on one
side only, then a count. It exits 1 if any file or flag differs, 0 if all
match. A subcommand that exits non-zero stops the comparison with exit
code 2.

``--expect-diff SUB`` (repeatable) states the diff a change to the draws
of subcommand SUB should make. The tool then exits 0 only when every
differing file lies under ``SUB-t12/`` or ``SUB-default/`` of a named
subcommand, each named subcommand has at least one differing file, and no
flag differs; it prints one line per breach of that rule, then a count.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUBCOMMANDS = ("example", "coalescence", "mwal", "mwal-gen", "pg", "eval-store")

# The test_12 configs: each subcommand at a small, fast size.
T12_FLAGS = {
    "example": "--seed 3 --runs 400 --replicates 3",
    "coalescence": "--seed 3 --runs 120 --sizes 4 --chains-per-size 1 --grand-sizes 5 "
                   "--grand-runs 25 --lazy-eps 0.4,0.2",
    "mwal": "--seed 3 --n-rounds 25 --m 60 --replicates 2",
    "mwal-gen": "--seed 3 --n-rounds 30 --replicates 2",
    "pg": "--seed 3 --samples 1500",
    "eval-store": "--seed 3 --epsilon 0.25 --delta 0.25 --replicates 1",
}

RUNS = [(f"{sub}-t12", sub, T12_FLAGS[sub].split()) for sub in SUBCOMMANDS] + [
    (f"{sub}-default", sub, []) for sub in SUBCOMMANDS
]


def _command(root: Path, *args: str) -> tuple[list[str], dict[str, str]]:
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    return [sys.executable, "-m", "cftp_rl.experiments.cli", *args], env


def _cli(root: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    cmd, env = _command(root, *args)
    return subprocess.run(cmd, cwd=root, env=env, check=True, **kwargs)


def run_side(root: Path, out: Path) -> dict[str, tuple[float, float]]:
    """Run every entry of RUNS in the checkout ``root``; return each run's (wall s, peak RSS MB)."""
    runs = {}
    for name, sub, flags in RUNS:
        cmd, env = _command(root, sub, "--out", str(out / name), *flags)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        runs[name] = (seconds, usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
        print(f"{root}: {name} done", file=sys.stderr)
    return runs


def flag_set(root: Path) -> set[str]:
    """Every ``<subcommand> --flag`` pair named in the checkout's ``--help`` pages."""
    flags = set()
    for sub in SUBCOMMANDS:
        text = _cli(root, sub, "--help", capture_output=True, text=True).stdout
        flags |= {f"{sub} {flag}" for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)}
    return flags


def differing_files(left: Path, right: Path) -> tuple[list[str], int]:
    names = sorted(
        {str(p.relative_to(left)) for p in left.rglob("*") if p.is_file()}
        | {str(p.relative_to(right)) for p in right.rglob("*") if p.is_file()}
    )
    differ = []
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} (only in {'parent' if a.is_file() else 'change'})")
        elif a.read_bytes() != b.read_bytes():
            differ.append(name)
    return differ, len(names)


def expected_diff_breaches(differ: list[str], flags_differ: list[str], expected: list[str]) -> list[str]:
    """Every way the differences break ``--expect-diff``: [] when they are exactly as expected."""
    runs = {sub: {f"{sub}-t12", f"{sub}-default"} for sub in expected}
    allowed = set().union(*runs.values())
    touched = {name.split("/", 1)[0] for name in differ}
    breaches = [f"{name} (not expected)" for name in differ if name.split("/", 1)[0] not in allowed]
    breaches += [f"{sub} (expected a diff, none found)" for sub, dirs in runs.items() if not dirs & touched]
    breaches += [f"{flag} (not expected)" for flag in flags_differ]
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--expect-diff", action="append", choices=SUBCOMMANDS, metavar="SUB",
                        help="a subcommand whose outputs should differ (repeatable); "
                             "exit 0 only when exactly these differ and no flag does")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        try:
            runs = {side: run_side(getattr(args, side), work / side) for side in ("parent", "change")}
            flags = {side: flag_set(getattr(args, side)) for side in ("parent", "change")}
        except subprocess.CalledProcessError as exc:
            print(f"{' '.join(exc.cmd[3:])} exited {exc.returncode}", file=sys.stderr)
            return 2
        differ, total = differing_files(work / "parent", work / "change")
    print(f"{'run':20} {'parent_s':>9} {'parent_MB':>9} {'change_s':>9} {'change_MB':>9}")
    for name, _, _ in RUNS:
        (ps, pm), (cs, cm) = runs["parent"][name], runs["change"][name]
        print(f"{name:20} {ps:9.2f} {pm:9.1f} {cs:9.2f} {cm:9.1f}")
    totals = [
        (sum(s for s, _ in runs[side].values()), max(m for _, m in runs[side].values()))
        for side in ("parent", "change")
    ]
    print(f"{'total':20} {totals[0][0]:9.2f} {totals[0][1]:9.1f} {totals[1][0]:9.2f} {totals[1][1]:9.1f}")
    for name in differ:
        print(name)
    print(f"{len(differ)} of {total} files differ")
    one_side = sorted(flags["parent"] ^ flags["change"])
    for flag in one_side:
        print(f"{flag} (only in {'parent' if flag in flags['parent'] else 'change'})")
    print(f"{len(one_side)} of {len(flags['parent'] | flags['change'])} flags differ")
    if args.expect_diff is None:
        return 1 if differ or one_side else 0
    breaches = expected_diff_breaches(differ, one_side, args.expect_diff)
    for breach in breaches:
        print(breach)
    print(f"{len(breaches)} breaches of --expect-diff {' '.join(args.expect_diff)}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
