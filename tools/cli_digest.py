"""Digest the CLI's stdout, stderr and exit codes over a fixed grid of requests.

    PYTHONPATH=src python3 tools/cli_digest.py [--repetitions 1] [--group NAME ...]

Two source trees print the same lines exactly when ``cnomial``'s output is
byte-identical on the grid: run the script once with each tree's ``src``
on PYTHONPATH and compare.  The grid, one group each:

- ``compute-central``: k 1-5, n 0-40, every method and ``all``, every format;
- ``compute-general``: the same k and n at five general l (0, 1, kn - 1,
  kn + 1, 2kn), ``--method all``, plain and json-lines;
- ``compute-large``: (k, n) from (1, 300) to (10, 100), where the trace
  route squares step by step and the spectral sum runs at arbitrary
  precision, at the central l and three others, ``--method all``;
- ``sequence``: windows of n for k 1-5, every method and format;
- ``sequence-long``: every method for k 1-5, 40 terms from n = 0 and from
  n = 25, plain and json-lines: spectral runs whose double rung escalates
  part way through the window, and conv and trace runs that carry one row
  or one window across 40 n;
- ``double-gate``: k 1-10, n from one below the largest n the double
  rung's gate admits to two above (:data:`GATE_EDGES`), at l = kn, 0 and
  kn + 1, ``--method all``, json-lines: records that print ``strategy``,
  ``escalations`` and ``residual``, so a moved gate changes the digest;
- ``row-orders``: ``--method all`` json-lines reads of several l of one
  row (l = 0, 2kn and both sides of the centre; n = 0 too), in ascending
  order, in descending order, and interleaved with another row's
  (:data:`ROWS`), so that a row the spectral route keeps between reads
  (``_phase_form``'s, which outlives a request), read stale, changes the
  digest;
- ``oeis``: ``--offline`` for each registered id and k, counts 1-10,
  every format, and the count past the fixture;
- ``verify``: grids k-max 1-4 by n-max, with no ``--seed`` and with three;
- ``errors``: usage errors (exit 2), value errors (exit 2) and help texts.

``--group NAME``, which may be repeated, runs only the groups named (an
unknown name is a usage error, exit 2); by default every group runs.

Every request runs in this process through ``cnomial.cli.main``, as the
benchmark sends them, so the two caches that outlive a request
(``cnomial.cli.KEPT_CACHES``) carry rows from one request to the next.
``COLUMNS`` is pinned to 80, since argparse wraps help to the terminal,
and the b-file cache is an empty directory, since ``oeis --offline``
reads it.  The grid runs ``repetitions`` times; a pass whose output
differs from the first's is reported on stderr and the script exits 1.
One JSON line per group run, then one for ``all`` of them, goes to
stdout, with the keys ``type``, ``group``, ``requests``, ``repetitions``,
``python`` (the minor version that ran it), ``stdout``, ``stderr``,
``exit_codes`` and ``values``.  ``stdout``, ``stderr`` and ``exit_codes``
are SHA-256 digests of the first pass's outputs and exit codes, request
by request.
``values`` digests stdout with every ``residual`` removed (the json-lines
key and the csv column), which is all that may differ between Python
versions: the double rung's sums of floats are compensated from 3.12 on.
It is null for ``errors``, whose help texts change with argparse, and
``all``'s leaves that group out.  ``tests/golden/cli_digest.jsonl`` holds
this script's output; regenerate it where output changes on purpose:

    PYTHONPATH=src python3 tools/cli_digest.py > tests/golden/cli_digest.jsonl
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from unittest import mock

from cnomial import cli

KS = range(1, 6)
NS = range(0, 41)
FORMATS = ("plain", "csv", "json-lines")
OEIS = {"A002426": 1, "A005191": 2, "A025012": 3}
#: k -> the largest n the double rung's gate admits, at the centre's smallest
#: N and at the 2kn+1 of every other l.
GATE_EDGES = {1: (30, 30), 2: (20, 21), 3: (17, 17), 4: (15, 15), 5: (14, 14),
              6: (13, 13), 7: (12, 13), 8: (12, 12), 9: (11, 12), 10: (11, 11)}

#: Pairs of rows that ``row-orders`` reads, each row alone and the pair interleaved.
ROWS = (((1, 7), (2, 12)), ((3, 40), (1, 60)), ((4, 0), (5, 9)))


def _compute_central() -> list[list[str]]:
    return [["compute", "--k", str(k), "--n", str(n), "--method", method, "--format", fmt]
            for k in KS for n in NS for method in (*cli.METHODS, "all") for fmt in FORMATS]


def _compute_general() -> list[list[str]]:
    requests = []
    for k in KS:
        for n in NS:
            ls = sorted({l for l in (0, 1, k * n - 1, k * n + 1, 2 * k * n) if 0 <= l <= 2 * k * n})
            requests += [["compute", "--k", str(k), "--n", str(n), "--l", str(l), "--method", "all",
                          "--format", fmt] for l in ls for fmt in ("plain", "json-lines")]
    return requests


def _compute_large() -> list[list[str]]:
    return [["compute", "--k", str(k), "--n", str(n), "--l", str(l), "--method", "all"]
            for k, n in ((1, 300), (1, 801), (3, 100), (3, 250), (10, 40), (10, 100))
            for l in (k * n, 1, k * n + 7, 2 * k * n - 3)]


def _sequence() -> list[list[str]]:
    return [["sequence", "--k", str(k), "--start-n", str(start), "--count", str(count),
             "--method", method, "--format", fmt]
            for k in KS for start in range(0, 41, 8) for count in (1, 3, 6)
            for method in cli.METHODS for fmt in FORMATS]


def _sequence_long() -> list[list[str]]:
    return [["sequence", "--k", str(k), "--start-n", str(start), "--count", "40",
             "--method", method, "--format", fmt]
            for k in KS for start in (0, 25) for method in cli.METHODS for fmt in ("plain", "json-lines")]


def _double_gate() -> list[list[str]]:
    return [["compute", "--k", str(k), "--n", str(n), "--l", str(l), "--method", "all",
             "--format", "json-lines"]
            for k, edges in GATE_EDGES.items() for n in range(min(edges) - 1, max(edges) + 3)
            for l in (k * n, 0, k * n + 1)]


def _row_orders() -> list[list[str]]:
    def reads(k: int, n: int) -> list[tuple[int, int, int]]:
        ls = {0, 1, k * n - 3, k * n - 1, k * n, k * n + 2, k * n + 5, 2 * k * n - 1, 2 * k * n}
        return [(k, n, l) for l in sorted(l for l in ls if 0 <= l <= 2 * k * n)]

    orders = []
    for a, b in ROWS:
        first, second = reads(*a), reads(*b)
        orders += [first, first[::-1], second, second[::-1]]
        orders.append([read for pair in zip(first, second[::-1]) for read in pair])
    return [["compute", "--k", str(k), "--n", str(n), "--l", str(l), "--method", "all",
             "--format", "json-lines"] for order in orders for k, n, l in order]


def _oeis() -> list[list[str]]:
    requests = []
    for oeis_id, k in OEIS.items():
        for count in range(1, 11):
            for fmt in FORMATS:
                requests += [["oeis", "--id", oeis_id, "--count", str(count), "--offline", "--format", fmt],
                             ["oeis", "--k", str(k), "--count", str(count), "--offline", "--format", fmt]]
        requests.append(["oeis", "--id", oeis_id, "--k", str(k), "--count", "1000", "--offline"])
    return requests


def _verify() -> list[list[str]]:
    requests = []
    for k_max, n_maxes in {1: (1, 8, 22), 2: (3, 14), 3: (10,), 4: (8, 13)}.items():
        for n_max in n_maxes:
            base = ["verify", "--k-max", str(k_max), "--n-max", str(n_max)]
            requests += [[*base, "--format", fmt] for fmt in FORMATS]
            requests += [[*base, "--seed", str(seed), "--format", "json-lines"] for seed in (1, 2, 660583)]
    return requests


def _errors() -> list[list[str]]:
    usage = [[], ["transmogrify"], ["compute"], ["compute", "--k", "x", "--n", "1"],
             ["compute", "--k", "1", "--n", "1", "--bogus"], ["compute", "--k", "1", "--n", "1", "extra"],
             ["compute", "--k", "1", "--n", "1", "--method", "nope"], ["sequence", "--k", "1"],
             ["verify", "--k-max", "1", "--n-max", "2", "--seed", "x"], ["bench", "--k", "1", "--n", "a"],
             ["bench", "--k", "1", "--n", "1", "--method", "conv,bad"], ["oeis", "--bogus"],
             ["compute", "--k", "1", "--n", "1", "--precision", "arbitrary"]]
    values = [["compute", "--k", "0", "--n", "1"], ["compute", "--k", "1", "--n", "-1"],
              ["compute", "--k", "1", "--n", "2", "--l", "5"], ["compute", "--k", "1", "--n", "2", "--l", "-1"],
              ["sequence", "--k", "1", "--count", "0"], ["sequence", "--k", "1", "--count", "2", "--start-n", "-1"],
              ["verify", "--k-max", "0", "--n-max", "1"], ["bench", "--k", "1", "--n", "1", "--repetitions", "0"],
              ["oeis", "--offline"], ["oeis", "--id", "B000001", "--offline"], ["oeis", "--k", "9", "--offline"],
              ["oeis", "--id", "A000001", "--offline"], ["oeis", "--k", "1", "--count", "0", "--offline"]]
    helps = [["--help"], ["-h"], *([command, "--help"] for command in ("compute", "sequence", "verify",
                                                                      "bench", "oeis"))]
    return usage + values + helps


GROUPS = {
    "compute-central": _compute_central,
    "compute-general": _compute_general,
    "compute-large": _compute_large,
    "sequence": _sequence,
    "sequence-long": _sequence_long,
    "double-gate": _double_gate,
    "row-orders": _row_orders,
    "oeis": _oeis,
    "verify": _verify,
    "errors": _errors,
}


def run(argv: list[str]) -> tuple[str, str, str]:
    """stdout, stderr and exit code of one request through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(list(argv)))
        except SystemExit as exit:
            code = str(exit.code)
        except Exception:  # a crash is an output too: the digest must show it
            code = "raised"
            traceback.print_exc(limit=0)
    return out.getvalue(), err.getvalue(), code


def digest(texts) -> str:
    """SHA-256 of a stream of texts, each framed by its length."""
    hashed = hashlib.sha256()
    for text in texts:
        data = text.encode()
        hashed.update(b"%d:" % len(data) + data)
    return hashed.hexdigest()


def digests(results: list[tuple[str, str, str]]) -> dict[str, str]:
    """The digest of each stream: stdout, stderr and exit codes, request by request."""
    return dict(zip(("stdout", "stderr", "exit_codes"), map(digest, zip(*results))))


def without_residuals(argv: list[str], stdout: str) -> str:
    """A request's stdout with every ``residual`` removed: the json-lines key, the csv column."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    if fmt == "json-lines":
        records = map(json.loads, stdout.splitlines())
        return "".join(json.dumps({key: value for key, value in record.items() if key != "residual"}) + "\n"
                       for record in records)
    if fmt == "csv" and stdout:
        rows = list(csv.reader(io.StringIO(stdout)))
        kept = [i for i, name in enumerate(rows[0]) if name != "residual"]
        buffer = io.StringIO()
        csv.writer(buffer).writerows([row[i] for i in kept] for row in rows)
        return buffer.getvalue()
    return stdout


def grid_digests(repetitions: int = 1, groups: list[str] | None = None) -> tuple[list[dict], int]:
    """The digest records of the grid's ``groups`` (by default all of them), and 1
    if a later pass differed from the first, else 0."""
    grid = {name: build() for name, build in GROUPS.items() if groups is None or name in groups}
    first: dict[str, list[tuple[str, str, str]]] = {}
    status = 0
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.dict(os.environ, COLUMNS="80", CNOMIAL_CACHE_DIR=cache):
        for repetition in range(repetitions):
            for name, requests in grid.items():
                results = [run(argv) for argv in requests]
                if name not in first:
                    first[name] = results
                elif results != first[name]:
                    index = next(i for i, pair in enumerate(zip(results, first[name])) if pair[0] != pair[1])
                    print(f"pass {repetition + 1} differs from the first in {name}: {requests[index]}",
                          file=sys.stderr)
                    status = 1
    values = {name: [without_residuals(argv, out) for argv, (out, _, _) in zip(grid[name], results)]
              for name, results in first.items() if name != "errors"}
    first["all"] = [result for results in first.values() for result in results]
    values["all"] = [result for results in values.values() for result in results]
    python = "%d.%d" % sys.version_info[:2]
    records = [{"type": "digest", "group": name, "requests": len(results), "repetitions": repetitions,
                "python": python, **digests(results),
                "values": digest(values[name]) if name in values else None}
               for name, results in first.items()]
    return records, status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--group", action="append", choices=list(GROUPS),
                        help="run only this group (repeatable; default: every group)")
    args = parser.parse_args()
    records, status = grid_digests(args.repetitions, args.group)
    for record in records:
        print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
