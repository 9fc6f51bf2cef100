"""Run perfbench in alternating parent/change pairs and summarize into a BENCH file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload policy-eval \
        --seed 1905 --pairs 10 --seconds 30 --out BENCH_6.json

DIR is the root of a checkout (e.g. ``git archive <commit> | tar -x -C DIR``).
Each pair runs ``perfbench/run.py`` once in each checkout, one after the
other; the side that goes first alternates from pair to pair, so a drift in
host speed hits both sides alike. The summary for ``<workload>@<seed>`` is
merged into ``--out`` (other entries are kept). Per side it holds, for every
end-to-end metric of the final result line, the median and quartiles over
the runs and every run's value, plus failed/attempted checks, the phase
digests and the machine record from the report line. It also holds each
run's iteration count and their median (``iterations``,
``median_iterations``): the harness keeps every iteration's instance, so
``peak_rss_mb`` grows with the iterations that fit in ``--seconds``.
``setup`` holds, per part of ``setup_s`` (``import_s``, the fresh-interpreter
``import cftp_rl``, and ``build_s``, the instance-and-oracle build), each
run's median uncalibrated seconds from the report's ``setup`` record, with
their median and quartiles, so a ``setup_s`` gap shows which part moved.
``rss_fit`` fits ``peak_rss_mb = intercept + mb_per_iteration x
iterations`` by least squares over the runs of both sides, with the
largest absolute residual; it is also printed to stderr. When one line fits
both sides closely, an RSS gap between them comes from the iteration count,
not from the library. Per metric it adds the pairs the change won (lower
is better for every metric here) and the median of the per-pair gaps,
parent minus change. ``digest_mismatches`` lists the phases whose
digests differ between the sides (a side whose runs disagree counts as
differing); each is also printed to stderr.

Per metric, ``verdict`` holds the acceptance reading of the two sides
(``acceptance_verdict``), judged against that metric's relative ``bound``
in the ``BENCHMARK.json`` next to this tool, the only file it reads there:
"beyond bound" when the change's median is worse than the parent's by more
than the bound; else "unresolved" when the parent's IQR, over its median,
is wider than the bound and not every change run beats every parent run;
else "claim met" when the change won at least 9 in 10 of the pairs and its
median gain, the median per-pair gap, exceeds the parent's IQR; else
"within bound". A metric the file gives no bound is judged on the claim
rule alone.

The verdict goes to stderr, one line per end-to-end metric: the parent
and change medians, the change in percent of the parent's median, the
pairs the change won and the verdict. The JSON is written in every case.
The exit code is 1 when a phase digest differs or any run of either side
failed a check, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def quartiles(values: list[float]) -> dict:
    # statistics.quantiles needs two runs; a single run is its own quartiles.
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def side_summary(runs: list[tuple[dict, dict]]) -> dict:
    names = runs[0][0]["metrics"]
    iterations = [len(report["iterations"]) for _, report in runs]
    digests = {
        phase: sorted({report["counters"][phase]["digest"] for _, report in runs})
        for phase in runs[0][1]["counters"]
    }
    return {
        "metrics": {n: quartiles([r["metrics"][n]["value"] for r, _ in runs]) for n in names},
        "failed": sum(r["failed"] for r, _ in runs),
        "attempted": sum(r["attempted"] for r, _ in runs),
        "digests": {p: d[0] if len(d) == 1 else d for p, d in digests.items()},
        "iterations": iterations,
        "median_iterations": statistics.median(iterations),
        "setup": {part: quartiles([statistics.median(report["setup"][part]) for _, report in runs])
                  for part in ("import_s", "build_s")},
        "machine": runs[0][1]["machine"],
    }


def rss_fit(runs: list[tuple[dict, dict]]) -> dict | None:
    """Least-squares line of peak_rss_mb against iterations; None when every run has one count."""
    iterations = [len(report["iterations"]) for _, report in runs]
    rss = [result["metrics"]["peak_rss_mb"]["value"] for result, _ in runs]
    try:
        slope, intercept = statistics.linear_regression(iterations, rss)
    except statistics.StatisticsError:
        return None
    residuals = [r - (intercept + slope * i) for i, r in zip(iterations, rss)]
    return {"intercept": intercept, "mb_per_iteration": slope,
            "max_residual": max(abs(r) for r in residuals)}


def acceptance_verdict(parent: dict, change: dict, wins: int, pairs: int, median_gap: float,
                       bound: float | None) -> str:
    """The acceptance reading of one metric from its two sides' ``quartiles`` summaries.

    ``wins`` counts the pairs the change won and ``median_gap`` is the
    median per-pair gap, parent minus change; lower is better. The module
    docstring gives the rules and their order.
    """
    before = parent["median"]
    if bound is not None:
        if change["median"] - before > bound * before:
            return "beyond bound"
        every_run_beaten = max(change["runs"]) < min(parent["runs"])
        if parent["iqr"] > bound * before and not every_run_beaten:
            return "unresolved"
    if 10 * wins >= 9 * pairs and median_gap > parent["iqr"]:
        return "claim met"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1905)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    summary = {side: side_summary(r) for side, r in runs.items()}
    summary["pairs"] = args.pairs
    summary["seconds"] = args.seconds
    summary["change_wins"] = {}
    summary["median_gap"] = {}
    summary["verdict"] = {}
    bounds = {m["name"]: m.get("bound") for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    for name in summary["parent"]["metrics"]:
        gaps = [p["metrics"][name]["value"] - c["metrics"][name]["value"]
                for (p, _), (c, _) in zip(runs["parent"], runs["change"])]
        summary["change_wins"][name] = sum(g > 0 for g in gaps)
        summary["median_gap"][name] = statistics.median(gaps)
        summary["verdict"][name] = acceptance_verdict(
            summary["parent"]["metrics"][name], summary["change"]["metrics"][name],
            summary["change_wins"][name], args.pairs, summary["median_gap"][name], bounds.get(name),
        )
    digests = {side: summary[side]["digests"] for side in sides}
    summary["digest_mismatches"] = sorted(
        phase for phase in digests["parent"].keys() | digests["change"].keys()
        if digests["parent"].get(phase) != digests["change"].get(phase)
    )
    for phase in summary["digest_mismatches"]:
        print(f"digest mismatch in {phase}: parent {digests['parent'].get(phase)}, "
              f"change {digests['change'].get(phase)}", file=sys.stderr)

    summary["rss_fit"] = rss_fit([run for side in runs.values() for run in side])
    print(f"rss_fit: {summary['rss_fit']}", file=sys.stderr)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[f"{args.workload}@{args.seed}"] = summary
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")

    for name in summary["parent"]["metrics"]:
        before = summary["parent"]["metrics"][name]["median"]
        after = summary["change"]["metrics"][name]["median"]
        percent = 100.0 * (after - before) / before if before else float("nan")
        print(f"{args.workload}@{args.seed} {name}: parent {before:.4g}, change {after:.4g} "
              f"({percent:+.1f}%), change won {summary['change_wins'][name]}/{args.pairs}: "
              f"{summary['verdict'][name]}",
              file=sys.stderr)
    failed = {side: summary[side]["failed"] for side in sides}
    if any(failed.values()):
        print(f"failed checks: parent {failed['parent']}, change {failed['change']}",
              file=sys.stderr)
    return 1 if summary["digest_mismatches"] or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
