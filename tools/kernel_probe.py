"""Time each ``inverse_cdf`` strategy and each map-block layout, best of N, in microseconds.

Usage, from the root of a checkout:

    python3 tools/kernel_probe.py [--repeat 15] [--states 2,4,6,8,12,16,50,200]

The first table times one ``inverse_cdf`` call per strategy (compare whole
rows, count thresholds, binary search) on a random CDF table of n states
and ``table rows`` rows, over a grid of draws, with 1-D rows as the pair
walk and the eval store pass them. Each strategy is forced by patching the
module constants that select it; ``chosen`` names the one the constants
pick as they stand. A count is only exact up to 255 states (uint8
counts), so larger n print ``-`` for it.

The second table times one batched CFTP step per map-block layout: draw
``maps`` random maps from uniforms and compose them into as many runs
(``sampling._compose``). ``state-major`` counts per-state rows of shape
(n, 1) against a state-major copy of the uniforms; ``map-major`` makes
one flat call on tiled rows and composes its transposed view. Both use
the strategy the constants pick. ``chosen`` names the layout
``sampling._map_blocks`` uses at that n.

Every number is the best of ``--repeat`` timings, each the mean over
enough calls to fill about 2 ms. The probe checks that every strategy and
layout gives the same integers before it times them, and raises if one
does not. The test suite runs it once with ``--repeat 1 --states 2,12``
(``tests/test_tools.py``) for those checks.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cftp_rl import chains, sampling  # noqa: E402

DRAWS = (2, 16, 32, 48, 64, 128, 512, 2640, 12000)
MAPS = (1, 4, 16, 64, 256, 1365, 2000)
# Constant values that force each strategy; the counts stay exact as long as n <= 255.
FORCE = {
    "compare": {"COUNT_MIN_DRAWS": 2**62, "SEARCH_MIN_ENTRIES": 2**62},
    "count": {"COUNT_MIN_DRAWS": 0, "COUNT_MAX_STATES": 255},
    "search": {"COUNT_MAX_STATES": 0, "SEARCH_MIN_ENTRIES": 0},
}


@contextmanager
def forced(strategy: str):
    with mock.patch.multiple(chains, **FORCE[strategy]):
        yield


def chosen_strategy(n: int, draws: int) -> str:
    if n <= chains.COUNT_MAX_STATES:
        return "count" if draws >= chains.COUNT_MIN_DRAWS else "compare"
    return "compare" if draws * n < chains.SEARCH_MIN_ENTRIES else "search"


def best_us(call, repeat: int) -> float:
    number = max(1, int(2e-3 / max(timeit.timeit(call, number=1), 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


def cdf(gen: np.random.Generator, n_rows: int, n: int) -> np.ndarray:
    return chains.cdf_table(gen.dirichlet(np.ones(n), size=n_rows))


def strategy_table(states, repeat: int) -> None:
    gen = np.random.default_rng(1905)
    print("n  table_rows  draws  compare  count  search  chosen")
    for n in states:
        for n_rows in (n, 2 * n):
            table = cdf(gen, n_rows, n)
            for draws in DRAWS:
                rows, u = gen.integers(0, n_rows, draws), gen.random(draws)
                names = [s for s in FORCE if s != "count" or n <= 255]
                want = np.array([np.searchsorted(table[r], x, side="right") for r, x in zip(rows, u)])
                times = {}
                for name in names:
                    with forced(name):
                        if not np.array_equal(chains.inverse_cdf(table, rows, u), want):
                            raise AssertionError(f"{name} differs at n={n}, draws={draws}")
                        times[name] = best_us(lambda: chains.inverse_cdf(table, rows, u), repeat)
                cells = [f"{times[s]:.1f}" if s in times else "-" for s in FORCE]
                print(n, n_rows, draws, *cells, chosen_strategy(n, draws), sep="  ")


def layout_table(states, repeat: int) -> None:
    gen = np.random.default_rng(9704)
    print("n  maps  state-major  map-major  chosen")
    for n in states:
        cum = cdf(gen, n, n)
        per_state, tiled = np.arange(n)[:, None], np.arange(n)
        identity = np.arange(n)
        for maps in MAPS:
            u = gen.random(maps * n)
            cols = np.zeros(maps, dtype=np.intp)
            flat_rows = np.tile(tiled, maps)

            def state_major():
                drawn = chains.inverse_cdf(cum, per_state, u.reshape(maps, n).T.copy())
                return sampling._compose(identity, 1, cols, drawn)[0]

            def map_major():
                drawn = chains.inverse_cdf(cum, flat_rows, u).reshape(maps, n).T
                return sampling._compose(identity, 1, cols, drawn)[0]

            if not np.array_equal(state_major(), map_major()):
                raise AssertionError(f"layouts differ at n={n}, maps={maps}")
            chosen = "state-major" if n <= sampling.COUNT_MAX_STATES else "map-major"
            print(n, maps, f"{best_us(state_major, repeat):.1f}", f"{best_us(map_major, repeat):.1f}", chosen,
                  sep="  ")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timings per cell; the best is printed")
    parser.add_argument("--states", default="2,4,6,8,12,16,50,200", help="comma-separated state counts")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    states = [int(v) for v in args.states.split(",")]
    if min(states) < 1:
        parser.error("--states must be positive")
    strategy_table(states, args.repeat)
    print()
    layout_table(states, args.repeat)


if __name__ == "__main__":
    main()
