"""cnomial benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload central-large --seed 1 --seconds 35 --trace 0

(``--workload all`` runs every workload in turn, each in its own process.)

One caller sends requests in a closed loop: each request is the argv of a
``cnomial`` command, passed to ``cnomial.cli.main`` in this process with
stdout captured, and the next request goes out when the previous one has
returned.  A run sends the workload's seeded batch of requests again and
again for ``--seconds``, each pass from cold package caches, so that every
request is timed several times; its latency is the mean of those times.
Every time is scaled by the host's speed at that moment, measured by a
fixed unit of pure-Python work timed between requests (``calibrate.py``).
Once the timed phase is over, every printed value is checked against the
independent reference in ``reference.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces every
other request of each pass, alternating from pass to pass, with spans
around each layer's public functions (``spans.py``) and prints the
per-layer metrics, tracing overhead included.  The last line
of stdout is the result as one JSON object; the run's details
(environment, tail percentile, failures with their argv) go to
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import mpmath

import calibrate
import check
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-up is measured this many times per run, half before the timed phase
#: and half after it, and reported as the median.
SETUP_PROBES = 16

#: A calibration unit is timed before a pass, after it, and between two
#: requests once this long has passed since the last one.  A request's time
#: is scaled by the median of the units just before and just after it and
#: of any others timed within CALIBRATION_WINDOW_NS of it: one unit alone
#: is too noisy, and units further away miss the host's short slow
#: stretches.
CALIBRATE_EVERY_NS = 250_000_000
CALIBRATION_WINDOW_NS = 500_000_000

#: The tail percentile is the highest of these with at least
#: TAIL_BEYOND requests above it (the median when there are too few
#: requests); a fixed ladder keeps the percentile the same from run to run
#: while the request count wobbles.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: Small requests outside every workload, run before timing so that lazy
#: imports and first-call costs are paid; the package's caches are cleared
#: afterwards.
WARMUP = (
    ["compute", "--k", "1", "--n", "4", "--method", "all"],
    ["compute", "--k", "2", "--n", "30", "--l", "7", "--method", "all"],
    ["sequence", "--k", "1", "--start-n", "0", "--count", "3", "--method", "spectral"],
    ["oeis", "--k", "1", "--offline", "--format", "json-lines"],
    ["verify", "--k-max", "1", "--n-max", "3", "--seed", "0"],
)


@dataclass
class Outcome:
    argv: list[str]
    code: int | None
    out: str
    err: str
    error: str | None
    ns: int  # as measured
    scaled_ns: float = 0.0  # as it would read on the calibration's reference host

    def same_result(self, other: Outcome) -> bool:
        return (self.code, self.out, self.error) == (other.code, other.out, other.error)


@dataclass
class Timed:
    """What the timed phase keeps.

    The first pass is kept whole.  Of later passes only the times are
    kept, plus the outcomes whose result differs from the first pass's
    for the same request, so memory does not grow with the number of
    passes, and a faster program does not read a higher ``peak_rss_mb``.
    """
    first: list[Outcome]
    ns: list[list[float]]  # ns[p][i]: scaled time of request i in pass p
    raw_ns: list[list[int]]  # the same, as measured
    differing: list[tuple[int, Outcome]]  # (request index, outcome), later passes


def measure_setup(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """Seconds from process start to the request batch being ready, per
    probe, scaled by the host speed the probe measured next, and as measured."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            seconds = time.perf_counter() - start
            unit_ns = probe.stdout.read().split()
        if line.strip() != "ready" or probe.returncode != 0 or len(unit_ns) != 1:
            raise RuntimeError(f"set-up probe exited with {probe.returncode}")
        times.append((seconds * calibrate.factor([int(unit_ns[0])]), seconds))
    return times


def traced_in(pass_index: int, request_index: int) -> bool:
    """Whether a traced run traces this execution: every other request,
    alternating from pass to pass, so that each request runs traced and
    untraced in neighbouring passes."""
    return (pass_index + request_index) % 2 == 0


def run_pass(cli, batch: list[list[str]], *, deadline_ns: int | None = None,
             tracer: Tracer | None = None, pass_index: int = 0) -> list[Outcome]:
    """Send the batch's requests in order, one after another.

    Stops early once a request returns after ``deadline_ns``.  With a
    tracer, the spans are installed around the requests ``traced_in``
    picks, outside the request's timer.  Each time is scaled by the
    calibrations around it (``CALIBRATION_WINDOW_NS``).
    """
    outcomes: list[Outcome] = []
    units: list[int] = []
    calibrated: list[int] = []  # when each unit ended

    def calibrate_now() -> None:
        units.append(calibrate.unit_ns())
        calibrated.append(time.perf_counter_ns())

    calibrate_now()
    before: list[tuple[int, int]] = []  # (index of the unit before, start) per request
    for index, argv in enumerate(batch):
        if time.perf_counter_ns() - calibrated[-1] >= CALIBRATE_EVERY_NS:
            calibrate_now()
        traced = tracer is not None and traced_in(pass_index, index)
        if traced:
            tracer.request += 1
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        begin = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a request that raises is a failure; the loop goes on
            error = traceback.format_exc()
        end = time.perf_counter_ns()
        before.append((len(units) - 1, begin))
        if traced:
            tracer.uninstall()
        outcomes.append(Outcome(argv, code, out.getvalue(), err.getvalue(), error, end - begin))
        if deadline_ns is not None and end >= deadline_ns:
            break
    calibrate_now()
    for outcome, (c, begin) in zip(outcomes, before):
        lo, hi = c, c + 1
        while lo > 0 and calibrated[lo - 1] >= begin - CALIBRATION_WINDOW_NS:
            lo -= 1
        while hi + 1 < len(units) and calibrated[hi + 1] <= begin + outcome.ns + CALIBRATION_WINDOW_NS:
            hi += 1
        outcome.scaled_ns = outcome.ns * calibrate.factor(units[lo:hi + 1])
    return outcomes


def run_passes(cli, batch: list[list[str]], seconds: float,
               tracer: Tracer | None = None) -> Timed:
    """Repeat the batch for ``seconds``, from cold package caches each time.

    The first pass always completes; later ones stop at the deadline.  With
    a tracer, the first two passes complete, so every request runs both
    traced and untraced.
    """
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    minimum = 1 if tracer is None else 2
    timed = Timed([], [], [], [])
    while len(timed.ns) < minimum or time.perf_counter_ns() < deadline:
        reset_caches()
        outcomes = run_pass(cli, batch,
                            deadline_ns=deadline if len(timed.ns) >= minimum else None,
                            tracer=tracer, pass_index=len(timed.ns))
        if not timed.ns:
            timed.first = outcomes
        else:
            timed.differing += [(index, outcome) for index, outcome in enumerate(outcomes)
                                if not outcome.same_result(timed.first[index])]
        timed.ns.append([outcome.scaled_ns for outcome in outcomes])
        timed.raw_ns.append([outcome.ns for outcome in outcomes])
    return timed


def failure(outcome: Outcome) -> dict | None:
    """The argv and the disagreement if the outcome's output is wrong, else None."""
    error = outcome.error.strip().splitlines()[-1] if outcome.error else None
    try:
        reason = check.check(outcome.argv, outcome.code, outcome.out, error)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unparseable output ({exc!r}): {outcome.out!r}"
    if reason is None:
        return None
    return {"argv": outcome.argv, "reason": reason, "stderr": outcome.err,
            "traceback": outcome.error}


def timed_failures(timed: Timed) -> tuple[list[dict], set[int]]:
    """Each distinct wrong outcome, with how many executions gave it, and
    the indices of the requests that failed at least once."""
    executions = [0] * len(timed.first)
    for ns in timed.ns:
        for index in range(len(ns)):
            executions[index] += 1
    for index, _ in timed.differing:
        executions[index] -= 1  # what is left gave the first pass's result
    failed, indices = [], set()
    outcomes = [(index, outcome, executions[index]) for index, outcome in enumerate(timed.first)]
    outcomes += [(index, outcome, 1) for index, outcome in timed.differing]
    for index, outcome, count in outcomes:
        wrong = failure(outcome)
        if wrong is not None:
            wrong["executions"] = count
            failed.append(wrong)
            indices.add(index)
    return failed, indices


def reset_caches() -> None:
    """Clear every functools cache in the package, so passes start alike."""
    for name, module in list(sys.modules.items()):
        if name == "cnomial" or name.startswith("cnomial."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def percentile(sorted_values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-th percentile: a mean of all the
    order statistics, weighted by a beta distribution centred on p.

    A batch's latencies come in clumps (the four l of a general-mid pair,
    the four sizes of a central-large k), so the one or two values next to
    a plain percentile jump from run to run as the noise reorders them;
    the weighted mean moves less.
    """
    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    with mpmath.workprec(53):
        cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(sorted_values))


def tail_percentile(count: int) -> float:
    for p in TAIL_PERCENTILES:
        if count * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def git_sha() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cnomial, mpmath) -> dict:
    active = getattr(cnomial, "active_backend", None)
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cnomial_backend": active() if active is not None else "n/a",
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def request_latencies(ns: list[list[float]], keep=lambda pass_index, index: True) -> dict[int, float]:
    """The mean of each request's kept executions in ns, by its index in the
    batch.  Scaled times have lost the host's slow stretches, and of a few
    executions the mean wobbles less than the median."""
    times: dict[int, list[float]] = {}
    for pass_index, pass_ns in enumerate(ns):
        for index, t in enumerate(pass_ns):
            if keep(pass_index, index):
                times.setdefault(index, []).append(t)
    return {index: statistics.fmean(ts) for index, ts in times.items()}


def end_to_end(timed: Timed, failed: set[int], setup_s: list[tuple[float, float]],
               peak_rss_mb: float) -> tuple[dict, dict]:
    def latency_metrics(ns: list[list[float]]) -> tuple[float, float, float, float]:
        per_request = request_latencies(ns)
        latencies = sorted(t / 1e6 for t in per_request.values())
        correct = len(per_request.keys() - failed)
        return (correct / (sum(per_request.values()) / 1e9), percentile(latencies, 50),
                percentile(latencies, tail), len(latencies))

    tail = tail_percentile(len(timed.first))
    per_s, p50, tail_ms, requests = latency_metrics(timed.ns)
    raw_per_s, raw_p50, raw_tail_ms, _ = latency_metrics(timed.raw_ns)
    scaled_setup, raw_setup = zip(*setup_s)
    metrics = {
        "cases_per_s": (per_s, "1/s"),
        "case_ms_p50": (p50, "ms"),
        "case_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(scaled_setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    executions = sum(len(times) for times in timed.ns)
    details = {
        "cases_per_s": f"as measured {raw_per_s:.6g}",
        "case_ms_p50": f"as measured {raw_p50:.6g}",
        "case_ms_tail": f"p{tail:g} of {requests} requests; as measured {raw_tail_ms:.6g}",
        "setup_s": f"median of {len(setup_s)} probes, {min(scaled_setup):.3g}-"
                   f"{max(scaled_setup):.3g} s; as measured {statistics.median(raw_setup):.6g}",
        "passes": f"{executions} executions in {len(timed.ns)} passes over {requests} requests",
    }
    return metrics, details


def trace_overhead(timed: Timed) -> float:
    """Median over requests of mean traced / mean untraced time, minus 1."""
    traced = request_latencies(timed.ns, traced_in)
    untraced = request_latencies(timed.ns, lambda p, i: not traced_in(p, i))
    ratios = [traced[i] / untraced[i] for i in traced.keys() & untraced.keys()]
    return statistics.median(ratios) - 1


def run_workload(args: argparse.Namespace) -> int:
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_s = measure_setup(args.workload, args.seed, probes)
    sys.path.insert(0, str(SRC))
    import cnomial
    from cnomial import cli

    batch = workloads.batch(args.workload, args.seed)
    warmup = run_pass(cli, list(WARMUP))
    tracer = Tracer() if args.trace else None
    timed = run_passes(cli, batch, args.seconds, tracer)
    # Read before checking, so the reference's memory is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        setup_s += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup_s))
    RESULTS.mkdir(exist_ok=True)

    failed = [dict(wrong, executions=1) for wrong in map(failure, warmup) if wrong is not None]
    timed_failed, failed_requests = timed_failures(timed)
    failed += timed_failed
    failed_executions = sum(wrong["executions"] for wrong in failed)
    executions = len(warmup) + sum(len(times) for times in timed.ns)

    if not args.trace:
        metrics, details = end_to_end(timed, failed_requests, setup_s, peak_rss_mb)
    else:
        metrics = tracer.metrics(tracer.request, trace_overhead(timed))
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        details = {"spans": str(spans_path.relative_to(ROOT)), "spans_count": len(tracer.spans)}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cnomial, mpmath),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
        "failures": failed,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {executions} requests issued, "
          f"{failed_executions} failed")
    print("environment " + json.dumps(report["environment"]))
    for name, (value, unit) in metrics.items():
        note = f"  ({details[name]})" if name in details else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"failed_frac = {failed_executions / executions:.6g} ratio  "
              f"({failed_executions} of {executions}; {details['passes']})")
    for wrong in failed[:5]:
        print(f"FAILED {' '.join(wrong['argv'])}: {wrong['reason'][:500]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": executions,
        "failed": failed_executions,
        "metrics": report["metrics"],
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BATCHES) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cnomial" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'cnomial'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    # One fresh process per workload, so that no workload inherits another's
    # caches or peak memory.
    codes = [
        subprocess.run([sys.executable, __file__, "--workload", workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], cwd=ROOT).returncode
        for workload in workloads.BATCHES
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
