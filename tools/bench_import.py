"""Time fresh ``cnomial`` processes: the import of ``cnomial.cli`` and one-shot commands.

    PYTHONPATH=src python3 tools/bench_import.py [--repetitions 15]

Each case starts a new interpreter, ``repetitions`` times, the cases taking
turns so that a slow stretch of the host spreads over all of them.  The
``python`` case runs nothing and is the floor the others stand on;
``import`` imports ``cnomial.cli``; ``compute``, ``sequence``, ``verify``
and ``oeis`` run that command once through ``python -m cnomial``, output
discarded.  One JSON line per case goes to stdout, with the keys ``type``,
``case``, ``argv``, ``repetitions``, ``min_ms`` and ``median_ms`` (wall
time from start to exit, in ms), and ``modules``: how many modules the
case imports beyond the ``python`` case, counted from one extra run under
``-X importtime``.  Whether the interpreter may write bytecode
(``PYTHONDONTWRITEBYTECODE``) moves every figure: without the cache each
process compiles the package's sources.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

CASES = {
    "python": ["-c", "pass"],
    "import": ["-c", "import cnomial.cli"],
    "compute": ["-m", "cnomial", "compute", "--k", "1", "--n", "10", "--method", "all"],
    "sequence": ["-m", "cnomial", "sequence", "--k", "2", "--count", "12"],
    "verify": ["-m", "cnomial", "verify", "--k-max", "2", "--n-max", "6", "--seed", "1"],
    "oeis": ["-m", "cnomial", "oeis", "--k", "1", "--offline"],
}


def run(argv: list[str]) -> float:
    """Seconds from start to exit of ``python argv``; a failing case stops the script."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def imported(argv: list[str]) -> int:
    """How many modules ``python argv`` imports, by ``-X importtime``."""
    done = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    return sum(line.startswith("import time:") for line in done.stderr.splitlines()) - 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=15)
    args = parser.parse_args()
    times: dict[str, list[float]] = {case: [] for case in CASES}
    for _ in range(args.repetitions):
        for case, argv in CASES.items():
            times[case].append(run(argv))
    floor = imported(CASES["python"])
    for case, argv in CASES.items():
        record = {
            "type": "process",
            "case": case,
            "argv": argv,
            "repetitions": args.repetitions,
            "min_ms": round(min(times[case]) * 1e3, 3),
            "median_ms": round(statistics.median(times[case]) * 1e3, 3),
            "modules": imported(argv) - floor,
        }
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
