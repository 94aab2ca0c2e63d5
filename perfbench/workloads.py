"""Seeded request batches, one per workload.

A request is the argv a user would pass to ``cnomial``.  A run sends its
workload's batch again and again, so the batch is the whole input; the
same seed gives the same batch.  Batches from different seeds do the same
amount of work within a few per cent, which keeps the run-to-run spread of
the metrics small, while no two seeds send the same requests: every size
is a point of an even grid over its range, moved by the seed by up to a
twentieth of the grid step, and the seed also sets the order, the l of
``compute`` and the ``--seed`` of ``verify``.  Drawn independently, sizes
made batches differ in cost by more than the metrics' bounds; moved by up
to a fifth of the step, they still moved the median request's latency
with the seed by up to 9 %.

Why each workload exists is written down in README.md next to this file.
"""
from __future__ import annotations

import random

#: How far the seed moves a grid point, as a share of the grid step.
JITTER = 0.05

#: central-large: n per k so that N = 2kn + 1 spans roughly 600 to 2000;
#: 4 sizes per k make 12 requests, few enough that a run of 35 s sends
#: each of them three to five times.
CENTRAL_N = {1: (300, 800), 3: (100, 250), 10: (40, 100)}
CENTRAL_SIZES = 4

#: general-mid: 4 sizes of n per k, each asked for four l in turn; 80
#: requests, so that a run of 35 s sends each of them three or four times.
GENERAL_N = {k: (5, 150) for k in range(1, 6)}
GENERAL_SIZES = 4
GENERAL_L_PER_PAIR = 4

#: sequence-check: windows of n for k = 1..3 and every method.  Most
#: start low, where the spectral ladder crosses from double to arbitrary
#: precision; a few single terms sit further up, so the large-n kernels
#: run but stay a minor share.
SEQUENCE_K = (1, 2, 3)
SEQUENCE_METHODS = ("conv", "trace", "spectral")
LOW_WINDOWS = 36
LOW_WINDOW_START = (0, 30)
LOW_WINDOW_COUNT = (3, 6)
HIGH_TERMS = 4
HIGH_TERM_N = (31, 150)
OEIS_PER_K = 36

#: verify grids by k-max: the larger k-max, the smaller n-max, so that no
#: single grid outweighs the rest.
VERIFY_N = {1: (18, 22), 2: (14, 20), 3: (10, 16), 4: (8, 13)}
VERIFY_PER_K = 9


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers on an even grid over [lo, hi], jittered, in seeded order."""
    step = (hi - lo + 1) / count
    values = [lo + int((i + 0.5 + rng.uniform(-JITTER, JITTER)) * step) for i in range(count)]
    rng.shuffle(values)
    return values


def _compute(k: int, n: int, *rest: str) -> list[str]:
    return ["compute", "--k", str(k), "--n", str(n), *rest, "--method", "all"]


def _sequence(k: int, start: int, count: int, method: str) -> list[str]:
    return ["sequence", "--k", str(k), "--start-n", str(start),
            "--count", str(count), "--method", method]


def _central_large(rng: random.Random) -> list[list[str]]:
    batch = [_compute(k, n)
             for k, (lo, hi) in CENTRAL_N.items()
             for n in _spread(rng, lo, hi, CENTRAL_SIZES)]
    rng.shuffle(batch)
    return batch


def _general_mid(rng: random.Random) -> list[list[str]]:
    pairs = [(k, n) for k, (lo, hi) in GENERAL_N.items()
             for n in _spread(rng, lo, hi, GENERAL_SIZES)]
    rng.shuffle(pairs)
    # The four l of a pair follow each other: the first reads the shifted
    # power into circulant's cache, the other three find it there.  One l
    # falls in each quarter of the row, because how far l sits from the
    # centre decides how often the spectral sum escalates.
    return [_compute(k, n, "--l", str(l))
            for k, n in pairs
            for l in _spread(rng, 0, 2 * k * n, GENERAL_L_PER_PAIR)]


def _sequence_check(rng: random.Random) -> list[list[str]]:
    batch = []
    for k in SEQUENCE_K:
        for method in SEQUENCE_METHODS:
            counts = _spread(rng, *LOW_WINDOW_COUNT, LOW_WINDOWS)
            starts = _spread(rng, *LOW_WINDOW_START, LOW_WINDOWS)
            batch += [_sequence(k, start, count, method) for start, count in zip(starts, counts)]
            batch += [_sequence(k, n, 1, method) for n in _spread(rng, *HIGH_TERM_N, HIGH_TERMS)]
        batch += [["oeis", "--k", str(k), "--offline", "--format", "json-lines"]] * OEIS_PER_K
    for k_max, (lo, hi) in VERIFY_N.items():
        batch += [["verify", "--k-max", str(k_max), "--n-max", str(n_max),
                   "--seed", str(rng.randrange(10**6))]
                  for n_max in _spread(rng, lo, hi, VERIFY_PER_K)]
    rng.shuffle(batch)
    return batch


BATCHES = {
    "central-large": _central_large,
    "general-mid": _general_mid,
    "sequence-check": _sequence_check,
}


def batch(workload: str, seed: int) -> list[list[str]]:
    """The workload's requests for this seed, in the order they are sent."""
    return BATCHES[workload](random.Random(f"{workload}:{seed}"))
