"""Benchmark runner for cftp_rl: one workload, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample-large --seed 1905 --seconds 30 --trace 0

The library is imported from the checkout's ``src/`` directory; without it
the run exits with code 2 and prints no result. After set-up (timed as
``setup_s``), the workload's three phases run in a closed loop, iteration
after iteration, for about ``--seconds`` (at least two iterations). Every
iteration repeats the same work from the same seed on freshly built
instances. A phase's time is the sum over its units of each unit's median
time over all its runs, with every sample calibrated by the speed probe
(probe.py) and every unit scaled to its nominal work (``unit_scale``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics from the
traced ones; ``trace.overhead_frac`` compares the two kinds.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the machine record, per-iteration phase times, the named
per-workload rates, every check with its false-failure bound, and the
semantic counters and digests of the phases (these repeat exactly at a
fixed seed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1905
HELD_OUT_SEED = 9704  # reserved for confirming a claimed gain; not used while tuning
BLAS_THREADS = "1"
BLAS_ENV = {
    name: BLAS_THREADS
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_REPEATS = 5
MIN_ITERATIONS = 2

# End-to-end metrics (name, unit). Phases a/b/c are workload-specific; see README.md.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("phase_a_s", "s"),
    ("phase_b_s", "s"),
    ("phase_c_s", "s"),
    ("peak_rss_mb", "MB"),
]

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cftp_rl; print(time.perf_counter() - t)"
)


class LibraryMissing(RuntimeError):
    pass


def use_checkout_library() -> None:
    """Put the checkout's src/ first on sys.path and import cftp_rl from there."""
    if not (SRC / "cftp_rl" / "__init__.py").is_file():
        raise LibraryMissing(f"no cftp_rl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cftp_rl

    if Path(cftp_rl.__file__).resolve().parent != (SRC / "cftp_rl").resolve():
        raise LibraryMissing(f"cftp_rl was imported from {cftp_rl.__file__}, not from {SRC}")


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
    }


def time_import() -> float:
    """Seconds to import cftp_rl in a fresh interpreter (interpreter start excluded)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload, repeats: int) -> tuple[float, dict]:
    """Median import time plus median instance-and-oracle build time, each
    sample calibrated by the speed probe around it, as the phases are."""
    from probe import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    probe.run()
    imports, builds = [], []
    for _ in range(repeats):
        probe.due()
        start = perf_counter()
        seconds = time_import()
        imports.append((seconds, 0.5 * (start + perf_counter())))
    for _ in range(repeats):
        probe.due()
        start = perf_counter()
        workload.setup()
        end = perf_counter()
        builds.append((end - start, 0.5 * (start + end)))
    probe.run()

    def calibrated(samples):
        return statistics.median(t * NOMINAL_S / probe.around(mid) for t, mid in samples)

    detail = {"import_s": [t for t, _ in imports], "build_s": [t for t, _ in builds],
              "uncalibrated_s": statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in builds)}
    return calibrated(imports) + calibrated(builds), detail


def run_iteration(workload, seed: int, tracer=None) -> dict:
    """Build fresh instances (untimed), then run and time every unit of every phase.

    Untraced, a phase with ``repeats`` > 1 runs its units again in later
    rounds, interleaved with the other phases, so one slow stretch of the
    machine does not hit all of its samples, and the speed probe runs
    between units (see probe.py); ``refs`` holds, per sample, the reference
    time around it. Traced, every unit runs once and no probe runs.
    """
    from probe import SpeedProbe

    inst = workload.setup()
    times = {phase.name: None for phase in workload.phases}
    mids = {phase.name: None for phase in workload.phases}
    outs, errors = {}, {}
    probe = SpeedProbe() if tracer is None else None
    if probe is not None:
        probe.run()
    rounds = 1 if tracer is not None else max(phase.repeats for phase in workload.phases)
    for r in range(rounds):
        for phase in workload.phases:
            if r >= (1 if tracer is not None else phase.repeats) or phase.name in errors:
                continue
            units = phase.units(inst, seed)
            if times[phase.name] is None:
                times[phase.name] = [[] for _ in units]
                mids[phase.name] = [[] for _ in units]
            results = []
            restore = tracer.install() if tracer is not None else None
            try:
                for unit, samples, at in zip(units, times[phase.name], mids[phase.name]):
                    if probe is not None:
                        probe.due()
                    start = perf_counter()
                    try:
                        results.append(unit())
                    finally:
                        end = perf_counter()
                        samples.append(end - start)
                        at.append(0.5 * (start + end))
            except Exception as exc:  # a phase that raises fails its checks; the run goes on
                errors[phase.name] = f"{type(exc).__name__}: {exc}"
            finally:
                if restore is not None:
                    restore()
            if r == 0 and phase.name not in errors:
                outs[phase.name] = phase.combine(inst, results)
    refs = None
    if probe is not None:
        probe.run()
        refs = {name: [[probe.around(t) for t in unit] for unit in units]
                for name, units in mids.items() if units is not None}
    return {"inst": inst, "times": times, "refs": refs, "outs": outs, "errors": errors,
            "traced": tracer is not None}


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list, object]:
    """Closed-loop iterations of identical work for about ``seconds``.

    With ``trace`` the iterations alternate untraced and traced.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    iterations = []
    start = perf_counter()

    def another_fits() -> bool:
        """Whether an iteration of average length would still end in time."""
        elapsed = perf_counter() - start
        return elapsed + elapsed / len(iterations) <= seconds

    while len(iterations) < MIN_ITERATIONS or another_fits():
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(workload, seed, tracer if traced else None))
    return iterations, tracer


def unit_scales(phase, iterations) -> Iterable[float]:
    """Each unit's nominal work over the work it did (1.0 where the phase states none).

    The work of a unit is the same in every iteration, so the first
    iteration that completed the phase gives it."""
    for i in iterations:
        if phase.name in i["outs"]:
            return i["outs"][phase.name].get("unit_scale") or itertools.repeat(1.0)
    return itertools.repeat(1.0)


def phase_seconds(workload, iterations, calibrated: bool = False) -> dict:
    """Per phase, the sum over units of each unit's median time over all its
    runs, scaled to the unit's nominal work.

    ``calibrated`` divides every sample by the reference time around it
    and multiplies it by ``probe.NOMINAL_S`` first (untraced iterations only).
    """
    from probe import NOMINAL_S

    out = {}
    for phase in workload.phases:
        def samples(i):
            if not calibrated:
                return i["times"][phase.name]
            return [[t * NOMINAL_S / ref for t, ref in zip(ts, refs)]
                    for ts, refs in zip(i["times"][phase.name], i["refs"][phase.name])]

        per_unit = ([t for unit_samples in unit for t in unit_samples]
                    for unit in zip(*(samples(i) for i in iterations if i["times"][phase.name] is not None)))
        # A unit after one that raised has no samples.
        out[phase.metric] = sum(statistics.median(ts) * scale
                                for ts, scale in zip(per_unit, unit_scales(phase, iterations)) if ts)
    out["wall_s"] = sum(out[phase.metric] for phase in workload.phases)
    return out


def evaluate(workload, iterations) -> list:
    """Checks on the first iteration's outputs, plus exact repetition across iterations.

    A phase that raises in any iteration fails all of its checks.
    """
    from workloads import Check

    first = iterations[0]
    checks = workload.checks(first["inst"], first["outs"])
    for phase in workload.phases:
        digests = [i["outs"][phase.name]["digest"] for i in iterations if phase.name in i["outs"]]
        if len(digests) > 1:
            checks.append(Check(f"{phase.name} repeats exactly", len(set(digests)) == 1,
                                f"{len(digests)} iterations, digests {sorted(set(digests))}",
                                "deterministic invariant: 0"))
        errs = [i["errors"][phase.name] for i in iterations if phase.name in i["errors"]]
        if errs:
            checks += [Check(f"{phase.name} raised", False, errs[0], "a raising phase fails all its checks")] * phase.n_checks
    return checks


def layer_metrics(workload, iterations, tracer) -> dict:
    from tracing import layer_values

    traced = [i for i in iterations if i["traced"]]
    untraced = [i for i in iterations if not i["traced"]]
    counts: dict[str, float] = {}
    for i in traced:
        for k, v in workload.layer_counts(i["outs"]).items():
            counts[k] = counts.get(k, 0.0) + v
    values = layer_values(tracer, len(traced), counts)
    wall = phase_seconds(workload, traced)["wall_s"]
    values["trace.overhead_frac"] = wall / phase_seconds(workload, untraced)["wall_s"] - 1.0
    return values


def _scalars(out: dict) -> dict:
    return {k: v for k, v in out.items() if isinstance(v, (int, float, str, bool))}


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run in this process; returns (result, report)."""
    from tracing import PER_LAYER
    from workloads import FULL, WORKLOADS

    workload = WORKLOADS[workload_name]((sizes or FULL)[workload_name])
    setup_s, setup_detail = timed_setup(workload, setup_repeats)
    iterations, tracer = measure(workload, seed, seconds, trace)
    checks = evaluate(workload, iterations)
    failed = sum(not c.passed for c in checks)

    plain = [i for i in iterations if not i["traced"]]
    raw = phase_seconds(workload, plain)
    untraced = phase_seconds(workload, plain, calibrated=True)
    if trace:
        values = layer_metrics(workload, iterations, tracer)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        values = dict(untraced, setup_s=setup_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    first = iterations[0]
    report = {
        "workload": workload_name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "setup": setup_detail,
        "iterations": [
            {"traced": i["traced"], "unit_s": i["times"], "errors": i["errors"]}
            for i in iterations
        ],
        "named": workload.named(first["inst"], untraced, first["outs"]),
        "uncalibrated_s": raw,
        "reference_s": statistics.median(r for i in plain for units in i["refs"].values()
                                         for unit in units for r in unit),
        "failed_frac": failed / len(checks) if checks else 1.0,
        "checks": [vars(c) for c in checks],
        "counters": {name: _scalars(out) for name, out in first["outs"].items()},
        "extra": workload.report(first["inst"], first["outs"]),
    }
    if trace:
        report["trace_detail"] = {
            "absent": tracer.absent,
            "self_s_total": sum(s.self_s for s in tracer.stats.values()),
            "covered_s": tracer.covered_s,
            "inclusive_s": {k: s.total_s for k, s in tracer.stats.items() if s.calls},
            "traced_wall_s": sum(t for i in iterations if i["traced"] for units in i["times"].values()
                                 for samples in units for t in samples),
        }
    result = {"correct": failed == 0, "attempted": max(len(checks), 1), "failed": failed, "metrics": metrics}
    return result, report


def _json_default(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sample-large", "apprentice", "policy-eval"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot use the checkout's library: {exc}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, default=_json_default))
    print(json.dumps(result, default=_json_default))
    return 0


if __name__ == "__main__":
    # Pin BLAS threads before numpy is first imported.
    os.environ.update(BLAS_ENV)
    sys.dont_write_bytecode = True
    sys.exit(main())
