"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 --seconds 30 \
        --workloads sample-large apprentice policy-eval [--traced] \
        [--raw runs.jsonl] [--baseline perfbench/baseline.json --commit <id>]

Each run is a fresh ``run.py`` process, one after another. For every
workload and metric it prints the median, the quartiles and the spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives
them). ``--traced`` adds one ``--trace 1`` run per workload at the default
seed. ``--baseline`` writes the summary, the machine record and the map
from each per-layer metric to the end-to-end metrics it should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sample-large", "apprentice", "policy-eval"]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--raw", type=Path)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import DEFAULT_SEED, END_TO_END, HELD_OUT_SEED
    from tracing import PER_LAYER

    summary: dict = {}
    machine = None
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = run_once(workload, seed, args.seconds, 0)
            runs.append(out)
            machine = out["report"]["machine"]
            all_correct &= out["result"]["correct"]
            if args.raw:
                with open(args.raw, "a") as fh:
                    fh.write(json.dumps(out) + "\n")
            print(workload, seed, out["result"]["correct"],
                  {k: round(v["value"], 4) for k, v in out["result"]["metrics"].items()}, flush=True)
        entry = {name: dict(summarise([r["result"]["metrics"][name]["value"] for r in runs]), unit=unit)
                 for name, unit in END_TO_END}
        if args.traced:
            traced = run_once(workload, DEFAULT_SEED, args.seconds, 1)
            all_correct &= traced["result"]["correct"]
            entry["per_layer_at_default_seed"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            if args.raw:
                with open(args.raw, "a") as fh:
                    fh.write(json.dumps(traced) + "\n")
        summary[workload] = entry
        for name, _ in END_TO_END:
            s = entry[name]
            print(f"{workload:13s} {name:12s} median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.3f}", flush=True)

    if args.baseline:
        args.baseline.write_text(json.dumps({
            "commit": args.commit,
            "seeds": args.seeds,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "machine": machine,
            "workloads": summary,
            "layer_map": {name: moves for name, _, _, moves in PER_LAYER},
        }, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
