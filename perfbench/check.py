"""Correctness of one request's output, judged against the reference.

Every value the CLI prints is compared with :mod:`reference`; the CLI's
own verdicts (``AGREE``, ``verify``'s failure count, ``oeis``'s
``all_equal``) must also come out clean.
"""
from __future__ import annotations

import json
import re

import reference

METHODS = ("conv", "trace", "spectral")

_VERIFY_SUMMARY = re.compile(r"\A(\d+) cases?, (\d+) failures?\Z")


def _options(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs of an argv; bare flags map to ''."""
    options: dict[str, str] = {}
    rest = argv[1:]
    i = 0
    while i < len(rest):
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            options[rest[i]] = rest[i + 1]
            i += 2
        else:
            options[rest[i]] = ""
            i += 1
    return options


def _mismatch(what: str, got: object, want: object) -> str:
    return f"{what}: got {got!r}, want {want!r}"


def _compute(options: dict[str, str], out: str) -> str | None:
    k, n = int(options["--k"]), int(options["--n"])
    l = int(options.get("--l", k * n))
    value = str(reference.coefficient(k, n, l))
    want = [f"{method} {value}" for method in METHODS] + ["AGREE"]
    got = out.splitlines()
    return None if got == want else _mismatch(f"p_{l} for k={k} n={n}", got, want)


def _sequence(options: dict[str, str], out: str) -> str | None:
    k, start = int(options["--k"]), int(options["--start-n"])
    ns = range(start, start + int(options["--count"]))
    want = " ".join(str(reference.central(k, n)) for n in ns)
    got = out.strip()
    return None if got == want else _mismatch(f"central terms k={k} n={start}..", got, want)


def _oeis(options: dict[str, str], out: str) -> str | None:
    k = int(options["--k"])
    records = [json.loads(line) for line in out.splitlines()]
    terms = [r for r in records if r["type"] == "comparison"]
    summary = records[-1]
    if summary["type"] != "summary" or summary["count"] != len(terms) or not terms:
        return f"malformed oeis output: {records!r}"
    for term in terms:
        want = str(reference.central(k, term["n"]))
        if not (term["computed"] == term["expected"] == want and term["equal"] is True):
            return _mismatch(f"oeis term k={k} n={term['n']}", term, want)
    if summary["all_equal"] is not True:
        return f"oeis summary all_equal={summary['all_equal']!r}"
    return None


def _verify(options: dict[str, str], out: str) -> str | None:
    cases = int(options["--k-max"]) * int(options["--n-max"])
    match = _VERIFY_SUMMARY.match(out.strip())
    if match is None:
        return f"malformed verify output: {out!r}"
    got = (int(match[1]), int(match[2]))
    return None if got == (cases, 0) else _mismatch("verify (cases, failures)", got, (cases, 0))


_CHECKS = {"compute": _compute, "sequence": _sequence, "oeis": _oeis, "verify": _verify}


def check(argv: list[str], code: int | None, out: str, error: str | None) -> str | None:
    """None when the request was answered correctly, else why not.

    ``code`` is the exit code ``cli.main`` returned (or raised through
    ``SystemExit``), ``error`` the exception it raised, if any, as text.
    """
    if error is not None:
        return f"raised {error}"
    if code != 0:
        return f"exit code {code}"
    return _CHECKS[argv[0]](_options(argv), out)
