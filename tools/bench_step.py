"""Time the trace route's steps: squares on both kernels, powers by one pow or by steps, odd steps.

    PYTHONPATH=src python3 tools/bench_step.py [--repetitions 5]

For k in 1 and 10, and each packed product size of 2^12 to 2^20 bits, the
script finds the smallest e whose squaring step X² (X = Cᵉ, C the central
circulant of k on the ring of n = 2e+1, where X² does not wrap) forms a
product of at least that many bits, counted as ``circulant._square``
counts them: fields times field bytes times 8.  It times that square on
each kernel, forced by setting ``circulant.DECIMAL_MIN_BITS``; X² itself,
C²ᵉ, both by one ``pow`` of C's packed row and one unpack
(``circulant._central_power``) and by ``circulant.matrix_power``'s steps
alone (``circulant.POW_MAX_BITS`` set to 0 and the window cache emptied
before each call), each placed in a first row;
and the odd step X C as a running-window sum over X's window
(``circulant._times_central``, placed in a first row).  One JSON line per
(k, size) goes to stdout, with the keys ``type``, ``k``, ``e``,
``size_bits``, ``fields``, ``packed_bits``, ``bytes_us``, ``decimal_us``,
``pow_us``, ``steps_us`` and ``odd_window_us``: the timings are the min
over repetitions in microseconds.
"""
from __future__ import annotations

import argparse
import json
import time

from cnomial import Params
from cnomial import circulant

SIZES = [2**i for i in range(12, 21)]
KS = (1, 10)
KERNELS = {"bytes_us": float("inf"), "decimal_us": 0}


def packed_bits(k: int, e: int) -> int:
    """The size of X²'s packed product, X = Cᵉ, whose window has 2ke+1 fields."""
    return (4 * k * e + 1) * (((2 * k + 1) ** (2 * e)).bit_length() // 8 + 1) * 8


def smallest_power(k: int, bits: int) -> int:
    """The least e whose squaring step packs at least ``bits`` bits."""
    e = 1
    while packed_bits(k, e) < bits:
        e += 1
    return e


def timed(call, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e6, 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    for k in KS:
        for size in SIZES:
            e = smallest_power(k, size)
            params = Params(k, 2 * e + 1)
            dim = params.dim
            # X's window: the 2ke+1 entries from -ke mod N.
            values = circulant._window(k, e)
            bound = (2 * k + 1) ** (2 * e)
            record = {"type": "step", "k": k, "e": e, "size_bits": size, "fields": len(values),
                      "packed_bits": packed_bits(k, e)}
            for name, crossover in KERNELS.items():
                saved = circulant.DECIMAL_MIN_BITS
                circulant.DECIMAL_MIN_BITS = crossover
                try:
                    record[name] = timed(
                        lambda: circulant._square(values, bound), args.repetitions
                    )
                finally:
                    circulant.DECIMAL_MIN_BITS = saved
            record["pow_us"] = timed(
                lambda: circulant._place(
                    circulant._central_power(k, 2 * e), -2 * k * e, dim
                ),
                args.repetitions,
            )
            saved = circulant.POW_MAX_BITS
            circulant.POW_MAX_BITS = 0
            try:
                record["steps_us"] = timed(
                    lambda: circulant._window.cache_clear() or circulant.matrix_power(params, 2 * e),
                    args.repetitions,
                )
            finally:
                circulant.POW_MAX_BITS = saved
                circulant._window.cache_clear()
            record["odd_window_us"] = timed(
                lambda: circulant._place(
                    circulant._times_central(values, k), -k * (e + 1), dim
                ),
                args.repetitions,
            )
            print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
