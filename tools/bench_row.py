"""Time the spectral route on one coefficient, and on four of one row, from cold caches.

    PYTHONPATH=src python3 tools/bench_row.py [--repetitions 3]

For each (k, n) of a fixed grid, with d = 2kn, l runs over d/8, 3d/8, 5d/8
and 7d/8.  ``one_l`` times the first l alone, ``four_l`` all four in turn,
as ``compute --l`` asks for them one after another in one process; every
repetition starts with the routes' functools caches cleared by
``cnomial.cli._clear_route_caches``.  One JSON line per (k, n) goes to
stdout, with the keys ``type``, ``k``, ``n``, ``l``, ``repetitions``,
``one_l_min_s``, ``one_l_median_s``, ``four_l_min_s`` and
``four_l_median_s``: the min and median over repetitions, in seconds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

from cnomial import Params, cli, coefficient_via_spectrum

GRID = ((1, 1600), (3, 800), (10, 400), (10, 800))


def timed(params: Params, ls: list[int]) -> float:
    cli._clear_route_caches()
    start = time.perf_counter()
    for l in ls:
        coefficient_via_spectrum(params, l)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=3)
    args = parser.parse_args()
    for k, n in GRID:
        params = Params(k, n)
        ls = [(j * params.degree) // 8 for j in (1, 3, 5, 7)]
        record = {"type": "row", "k": k, "n": n, "l": ls, "repetitions": args.repetitions}
        for name, chosen in (("one_l", ls[:1]), ("four_l", ls)):
            times = [timed(params, chosen) for _ in range(args.repetitions)]
            record[f"{name}_min_s"] = round(min(times), 6)
            record[f"{name}_median_s"] = round(statistics.median(times), 6)
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
