"""Command-line interface: compute, sequence, verify, bench, oeis.

Exit codes are a stable contract: 0 for success/agreement, 1 for
mismatches, verification failures, or runtime failures (certification,
network), 2 for usage errors.  Output formats: ``plain`` for humans,
``csv`` (header row) and ``json-lines`` (one self-contained object per
line) for scripting.  Coefficient values are always emitted as decimal
strings; they outgrow 64-bit integers almost immediately.

Importing this module loads the routes, ``argparse`` and ``decimal``,
which every command needs; what only one command or format uses
(:mod:`cnomial.oeis`, ``json``, ``csv``, ``random``, ``statistics``) is
imported where that command or format runs.
"""
from __future__ import annotations

import argparse
import functools
import io
import math
import sys
import time
from math import pi, sin
from typing import Callable, NamedTuple

from . import circulant, exact, spectral
from ._digits import decimal
from .params import Params
from .spectral import CertificationError

#: Each method's module and the name there of its entry point for one
#: coefficient; each module's ``central_run(k, first, last)`` gives
#: ``sequence`` its window of n.
_ROUTES = {
    "conv": (exact, "coefficient"),
    "trace": (circulant, "coefficient_via_shift"),
    "spectral": (spectral, "coefficient_via_spectrum"),
}
METHODS = tuple(_ROUTES)

#: Relative/absolute tolerance of verify's ``eigen-ratios`` check, which compares the
#: double rung's sine ratios E_r with the Dirichlet kernel.
EIGEN_TOL = 1e-12


def _emit(records: list[dict], plain_lines: list[str], fmt: str) -> None:
    if fmt == "plain":
        for line in plain_lines:
            print(line)
    elif fmt == "json-lines":
        import json

        for record in records:
            print(json.dumps(record, sort_keys=False))
    elif fmt == "csv":
        import csv
        import json

        fieldnames: list[str] = []
        for record in records:
            for key in record:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(
            {key: json.dumps(value) if isinstance(value, dict) else value
             for key, value in record.items()}
            for record in records
        )
        sys.stdout.write(buffer.getvalue())
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt!r}")


def _evaluate(method: str, params: Params, l: int) -> int | spectral.CertifiedInteger:
    """p_l by one method: an int, or the certified result of ``spectral``.

    Each route has one entry point for one coefficient, and the central
    coefficient is l = kn; ``sequence`` calls each route's run of n
    instead.  Routes are looked up on their modules at every call, so a
    rebinding there (a test's fake, a tracer's wrapper) sees the call.
    """
    module, name = _ROUTES[method]
    return getattr(module, name)(params, l)


def _value(result: int | spectral.CertifiedInteger) -> int:
    return result if isinstance(result, int) else result.value


def _coefficient(method: str, params: Params, l: int) -> dict:
    """One coefficient by one method, as an output record."""
    result = _evaluate(method, params, l)
    record = {
        "type": "value",
        "method": method,
        "k": params.k,
        "n": params.n,
        "l": l,
        "value": decimal(_value(result)),
    }
    if method == "spectral":
        record["residual"] = result.residual
        record["strategy"] = result.policy_used.strategy
        record["escalations"] = result.escalations
        record["dim"] = result.dim
    return record


def cmd_compute(args: argparse.Namespace) -> int:
    params = Params(args.k, args.n)
    # Each route refuses an l outside [0, 2kn] before anything prints.
    l = args.l if args.l is not None else params.k * params.n
    methods = list(METHODS) if args.method == "all" else [args.method]
    records = [_coefficient(method, params, l) for method in methods]
    plain = [f"{r['method']} {r['value']}" for r in records]
    status = 0
    if args.method == "all":
        agree = len({r["value"] for r in records}) == 1
        records.append(
            {"type": "verdict", "k": params.k, "n": params.n, "l": l, "agree": agree}
        )
        plain.append("AGREE" if agree else "DISAGREE")
        status = 0 if agree else 1
    else:
        plain = [records[0]["value"]]
    _emit(records, plain, args.format)
    return status


def cmd_sequence(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    if args.start_n < 0:
        raise ValueError(f"start-n must be >= 0, got {args.start_n}")
    ns = range(args.start_n, args.start_n + args.count)
    # One run per request, looked up on its module at the call, as in
    # _evaluate: each route carries one n's row, window or spectrum on to
    # the next n.
    values = map(_value, _ROUTES[args.method][0].central_run(args.k, ns[0], ns[-1]))
    records = [
        {"type": "term", "k": args.k, "n": n, "method": args.method, "value": decimal(value)}
        for n, value in zip(ns, values)
    ]
    _emit(records, [" ".join(r["value"] for r in records)], args.format)
    return 0


def _kernel_row(m: int, dim: int) -> list[float]:
    """The Dirichlet kernel sin(m theta/2) / sin(theta/2) at theta = 2 pi r/N
    for r = 1..N-1, m = 2k+1, in one pass.

    Entry r is bit for bit the kernel evaluated at theta itself: halving is
    exact, so pi r/N is theta/2 and m (pi r/N) is m theta/2.  The angles
    are unfolded, so the row does not read the half-table of sines the
    ratios fold onto; N is odd, so no sin(theta/2) is 0.
    """
    return [sin(m * half) / sin(half) for half in [pi * r / dim for r in range(1, dim)]]


def _routes(conv: int, trace: int, proven: int | None) -> dict:
    """Each route's value as a decimal string; None for a sum that did not certify."""
    return {
        "conv": decimal(conv),
        "trace": decimal(trace),
        "spectral": None if proven is None else decimal(proven),
    }


def _verify_case(
    params: Params, ls: list[int], window: list[int]
) -> tuple[list[str], dict[str, dict]]:
    """Names of failed checks for one (k, n) grid case, and the values behind them.

    ``window`` is the row of (k, n) by the running window, the recurrence
    row's cross-check.  A failed ``methods-equal`` or ``coefficient-lN``
    maps to each route's value (and l) in the second result.
    """
    failed = []
    values = {}
    row = exact.expand_power(params)
    kn = params.k * params.n
    central = row[kn]

    if list(row) != window:
        failed.append("exact-window")
    proven = _certified(failed, spectral.coefficient_via_spectrum, params, kn)
    trace = circulant.coefficient_via_shift(params, kn)
    if central != trace or proven not in (None, central):
        failed.append("methods-equal")
        values["methods-equal"] = _routes(central, trace, proven)
    if row != row[::-1]:
        failed.append("row-symmetry")
    if sum(row) != params.width**params.n:
        failed.append("row-sum")
    if row[0] != 1 or (params.n >= 1 and row[1] != params.n):
        failed.append("edge-coefficients")
    # C^n has first row b_j = p_{(j + kn) mod N}: the row rotated by kn.
    if circulant.matrix_power(params, params.n) != row[kn:] + row[:kn]:
        failed.append("circulant-row")

    # The double rung's ratios E_r = sin(m r pi/N) / sin(r pi/N), folded
    # onto the half-table of sines, against the Dirichlet kernel at both
    # angles of the pair E_r = E_{N-r} that the spectral sum doubles, at
    # the N of the central sum: the ratios, then the same ratios mirrored,
    # against the kernel at r = 1..N-1.
    dim = spectral.dimension(params, 0)
    ratios = spectral._ratio_row(params.width, dim)
    if len(ratios) != dim // 2 or not all([
        math.isclose(ratio, kernel, rel_tol=EIGEN_TOL, abs_tol=EIGEN_TOL)
        for ratio, kernel in zip(ratios + ratios[::-1], _kernel_row(params.width, dim))
    ]):
        failed.append("eigen-ratios")

    for l in ls:
        proven = _certified(failed, spectral.coefficient_via_spectrum, params, l)
        shift = circulant.coefficient_via_shift(params, l)
        if row[l] != shift or proven not in (None, row[l]):
            failed.append(f"coefficient-l{l}")
            values[f"coefficient-l{l}"] = {"l": l, **_routes(row[l], shift, proven)}
    return failed, values


def _described(name: str, values: dict[str, dict]) -> str:
    """A failed check's name, with the values behind it where there are any."""
    if name not in values:
        return name
    detail = " ".join(
        f"{key}={'uncertified' if value is None else value}"
        for key, value in values[name].items()
    )
    return f"{name} ({detail})"


def _certified(
    failed: list[str], route: Callable[..., spectral.CertifiedInteger], *args: object
) -> int | None:
    """The value ``route(*args)`` certifies, or None with ``spectral-certified`` in ``failed``.

    A sum that does not certify fails its case and lets the grid go on; the
    other routes' checks still run.
    """
    try:
        return route(*args).value
    except CertificationError:
        if "spectral-certified" not in failed:
            failed.append("spectral-certified")
        return None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.k_max < 1 or args.n_max < 1:
        raise ValueError("k-max and n-max must be >= 1")
    rng = None
    if args.seed is not None:
        import random

        rng = random.Random(args.seed)
    records = []
    failures = 0
    for k in range(1, args.k_max + 1):
        # One window pass per n carries the row of (k, n - 1) to (k, n), so
        # the cross-check costs O(kn) per case rather than O(kn²).
        window = [1]
        for n in range(1, args.n_max + 1):
            params = Params(k, n)
            window = exact._times_ones(window, params.width)
            ls: list[int] = []
            if rng is not None:
                ls = sorted(
                    rng.sample(range(params.degree + 1), min(3, params.degree + 1))
                )
            failed, values = _verify_case(params, ls, window)
            if failed:
                failures += 1
                described = ", ".join(_described(name, values) for name in failed)
                print(f"FAIL k={k} n={n}: {described}", file=sys.stderr)
            record = {
                "type": "case",
                "k": k,
                "n": n,
                "ok": not failed,
                "failed": ";".join(failed),
            }
            if values:
                record["values"] = values
            records.append(record)
    cases = args.k_max * args.n_max
    records.append({"type": "summary", "cases": cases, "failures": failures})
    case_word = "case" if cases == 1 else "cases"
    failure_word = "failure" if failures == 1 else "failures"
    _emit(
        records,
        [f"{cases} {case_word}, {failures} {failure_word}"],
        args.format,
    )
    return 0 if failures == 0 else 1


#: The route caches that outlive a request, as ``module.name``: general-mid
#: reads four l of one row in four requests, and these two keep that row
#: (the trace route's half-power windows, the ball rung's row form).  They
#: go once a row's l can come in one request (ROADMAP, directions 3-4).
#: Every other cache serves one request only.
KEPT_CACHES = frozenset({"circulant._half_power_windows", "spectral._phase_form"})

#: Every functools cache of the route modules, as (module, name), found once
#: per process: walking the namespaces as each request starts would cost
#: about 14 us (2-vCPU Xeon, Python 3.11), a tenth of a small request.
_ROUTE_CACHES = tuple(
    (module, name)
    for module in (circulant, exact, spectral)
    for name, value in vars(module).items()
    if callable(getattr(value, "cache_clear", None))
)
_REQUEST_CACHES = tuple(
    (module, name) for module, name in _ROUTE_CACHES
    if f"{module.__name__.rpartition('.')[2]}.{name}" not in KEPT_CACHES
)


def _clear_route_caches(caches: tuple = _ROUTE_CACHES) -> None:
    """Empty the routes' functools caches (by default all of them), so a
    timed repetition, or with ``_REQUEST_CACHES`` a request, starts cold.

    Each cache is looked up on its module by name, so a rebinding there (a
    test's recorder) is the one emptied.  ``spectral._PI``, Machin's pi at
    the widest scale asked for so far, is a module global, not a functools
    cache: it outlives this, so only the first repetition at a new widest
    scale pays for it.
    """
    for module, name in caches:
        getattr(module, name).cache_clear()


def cmd_bench(args: argparse.Namespace) -> int:
    import statistics

    if args.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {args.repetitions}")
    methods = list(METHODS) if args.method == ["all"] else args.method

    records = []
    for n in args.n:
        params = Params(args.k, n)
        for method in methods:
            timings = []
            for _ in range(args.repetitions):
                _clear_route_caches()
                start = time.perf_counter()
                _evaluate(method, params, args.k * n)
                timings.append(time.perf_counter() - start)
            records.append(
                {
                    "type": "timing",
                    "method": method,
                    "k": args.k,
                    "n": n,
                    "repetitions": args.repetitions,
                    "min_s": round(min(timings), 9),
                    "median_s": round(statistics.median(timings), 9),
                }
            )
    header = f"{'method':<10} {'k':>3} {'n':>8} {'reps':>5} {'min_s':>12} {'median_s':>12}"
    plain = [header] + [
        f"{r['method']:<10} {r['k']:>3} {r['n']:>8} "
        f"{r['repetitions']:>5} {r['min_s']:>12.6f} {r['median_s']:>12.6f}"
        for r in records
    ]
    _emit(records, plain, args.format)
    return 0


def cmd_oeis(args: argparse.Namespace) -> int:
    from . import oeis

    oeis_id, k = args.id, args.k
    if oeis_id is None and k is None:
        raise ValueError("pass --id, --k, or both")
    if oeis_id is not None:
        oeis.validate_id(oeis_id)
    if oeis_id is None:
        oeis_id = oeis.OEIS_BY_K.get(k)
        if oeis_id is None:
            raise ValueError(f"no registered OEIS id for k={k}; pass --id")
    if k is None:
        k = oeis.K_BY_OEIS.get(oeis_id)
        if k is None:
            raise ValueError(f"{oeis_id} is not registered; pass --k")

    record = oeis.fixture_for_id(oeis_id) if args.offline else None
    if record is None:
        try:
            record = oeis.fetch_bfile(oeis_id, args.count, offline=args.offline)
        except oeis.FetchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    report = oeis.compare(record, k, args.count)

    records = [
        {
            "type": "comparison",
            "oeis_id": report.oeis_id,
            "k": report.k,
            "n": report.start_n + i,
            "expected": decimal(report.expected[i]),
            "computed": decimal(report.computed[i]),
            "equal": report.matches[i],
            **({} if report.matches[i] else {"spectral": decimal(report.spectral[i])}),
        }
        for i in range(report.count)
    ]
    source = record.provenance + (", cache hit" if record.cache_hit else "")
    records.append(
        {
            "type": "summary",
            "oeis_id": report.oeis_id,
            "k": report.k,
            "count": report.count,
            "source": source,
            "all_equal": report.all_equal,
            "first_mismatch": "" if report.first_mismatch is None else report.first_mismatch,
        }
    )
    if report.all_equal:
        plain = [
            f"{report.oeis_id} k={report.k}: {report.count} terms compared, "
            f"all equal ({source})"
        ]
    else:
        n = report.first_mismatch
        i = n - report.start_n
        trace, proven = report.computed[i], report.spectral[i]
        computed = decimal(trace)
        if trace != proven:
            computed = f"trace {computed}, spectral {decimal(proven)}"
        plain = [
            f"{report.oeis_id} k={report.k}: mismatch at n={n}: sequence has "
            f"{decimal(report.expected[i])}, computed {computed} ({source})"
        ]
    _emit(records, plain, args.format)
    return 0 if report.all_equal else 1


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _method_list(text: str) -> list[str]:
    values = [part for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one method")
    if values == ["all"]:
        return values
    if "all" in values:
        raise argparse.ArgumentTypeError("'all' cannot be combined with other methods")
    for value in values:
        if value not in METHODS:
            raise argparse.ArgumentTypeError(
                f"method must be one of {', '.join(METHODS + ('all',))}; got {value!r}"
            )
    return values


#: One option of a command, as ``add_argument`` takes it; a ``type`` of None
#: keeps the string and ``bool`` makes a ``store_true`` flag.  No str default
#: has a converting ``type``, which argparse would apply and the tables not.
class _Option(NamedTuple):
    string: str
    type: Callable | None = None
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    required: bool = False


_FORMAT = _Option("--format", None, "plain", ("plain", "csv", "json-lines"),
                  "output format (default: plain)")

#: Every command, in ``--help`` order: its help line, its handler and its
#: options, ``--format`` first.  :func:`build_parser` and
#: :func:`_command_tables` both read it.
_COMMANDS = {
    "compute": ("one coefficient by one or all methods", cmd_compute, (
        _FORMAT, _Option("--k", int, required=True), _Option("--n", int, required=True),
        _Option("--l", int, help="coefficient index (default: kn, the central one)"),
        _Option("--method", None, "conv", METHODS + ("all",)))),
    "sequence": ("emit M^(2k,n) for a range of n", cmd_sequence, (
        _FORMAT, _Option("--k", int, required=True), _Option("--count", int, required=True),
        _Option("--start-n", int, 0), _Option("--method", None, "conv", METHODS))),
    "verify": ("cross-method and invariant checks on a grid", cmd_verify, (
        _FORMAT, _Option("--k-max", int, required=True), _Option("--n-max", int, required=True),
        _Option("--seed", int,
                help="also check 3 random general coefficients per case, reproducibly"))),
    "bench": ("wall-time table for the three methods", cmd_bench, (
        _FORMAT, _Option("--k", int, required=True),
        _Option("--n", _int_list, required=True, help="comma-separated list of n values"),
        _Option("--method", _method_list, ["all"], help="comma-separated methods or 'all'"),
        _Option("--repetitions", int, 3))),
    "oeis": ("compare computed terms against an OEIS sequence", cmd_oeis, (
        _FORMAT, _Option("--offline", bool, False,
                         help="never touch the network; use fixtures or the cache"),
        _Option("--id", help="OEIS identifier, e.g. A002426"), _Option("--k", int),
        _Option("--count", int, 10))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Argparse's parser for every command in :data:`_COMMANDS`, built once per
    process, on the first argv the option tables do not read (see
    :func:`_parse_args`).  Parsing leaves it as it was.
    """
    parser = argparse.ArgumentParser(prog="cnomial", description=(
        "Central (2k+1)-nomial coefficients by polynomial convolution, "
        "circulant trace, and trigonometric spectral sum."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for option in options:
            kind = {"action": "store_true"} if option.type is bool else {
                "type": option.type, "choices": option.choices, "required": option.required}
            command.add_argument(option.string, default=option.default, help=option.help, **kind)
        command.set_defaults(func=handler)
    return parser


@functools.cache
def _command_tables() -> dict[str, tuple]:
    """Each command's ``(options, defaults, required)``, read off :data:`_COMMANDS`
    once per process: each option string's ``(dest, convert, choices)``, with
    no converter for a flag; the namespace before any option is read, as
    argparse starts it; the dests that must be given.
    """
    tables = {}
    for name, (_, handler, options) in _COMMANDS.items():
        entries, defaults, required = {}, {"command": name}, set()
        for option in options:
            dest = option.string[2:].replace("-", "_")
            convert = None if option.type is bool else option.type or str
            entries[option.string] = (dest, convert, option.choices)
            defaults[dest] = option.default
            if option.required:
                required.add(dest)
        defaults["func"] = handler
        tables[name] = entries, defaults, frozenset(required)
    return tables


def _parse_with_table(table: tuple, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for the canonical ``argv`` that
    :func:`_parse_args` describes, or None for any other argv.

    A repeated option keeps its last value, as in argparse.
    """
    options, defaults, required = table
    values = dict(defaults)
    seen = set()
    index, end = 1, len(argv)
    while index < end:
        entry = options.get(argv[index])
        if entry is None:
            return None
        dest, convert, choices = entry
        value = True  # a flag's, which has no converter
        if convert is not None:
            index += 1
            if index == end or argv[index].startswith("-"):
                return None
            try:
                value = convert(argv[index])
            except Exception:  # argparse reports or raises it
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(dest)
        index += 1
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same namespace, output, errors and exit codes.

    An argv that names a command and then gives only that command's exact
    option strings, each flag alone and each value option followed by a
    value that does not start with ``-``, converts and is a valid choice,
    with every required option present, is read off the command's table
    (:func:`_command_tables`, :func:`_parse_with_table`); argparse's parser
    is not built.  Anything else goes to argparse, which prints what it
    prints: help, no command or an unknown one, unknown or abbreviated
    options, ``--opt=value``, ``--``, a value starting with ``-``, a stray
    word, a value its ``type`` rejects, a bad choice, a missing required
    option.
    """
    table = _command_tables().get(argv[0]) if argv else None
    args = None if table is None else _parse_with_table(table, argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    _clear_route_caches(_REQUEST_CACHES)
    try:
        return args.func(args)
    except CertificationError as error:
        print(f"certification failed: {error} (residual {error.residual})",
              file=sys.stderr)
        return 1
    except ValueError as error:  # oeis's SequenceIdError and BFileParseError too
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
