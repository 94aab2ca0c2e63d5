"""Command-line contract: outputs, formats, and exit codes."""
import argparse
import ast
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from dirichlet import dirichlet_kernel
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import oeis
from cnomial import cli
from cnomial.cli import main

TRINOMIAL_BFILE = b"0 1\n1 1\n2 3\n3 7\n4 19\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_compute_all_agree(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "5", "--method", "all")
    assert code == 0
    assert out.splitlines() == ["conv 51", "trace 51", "spectral 51", "AGREE"]


def test_compute_default_method_and_power_zero(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_compute_single_coefficient(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "2", "--l", "1",
                       "--method", "conv")
    assert code == 0
    assert out.strip() == "2"


def test_compute_trace_non_central(capsys):
    code, out, _ = run(capsys, "compute", "--k", "2", "--n", "2", "--l", "3",
                       "--method", "trace")
    assert code == 0
    assert out.strip() == "4"


def test_compute_spectral_non_central(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "2", "--l", "1",
                       "--method", "spectral")
    assert code == 0
    assert out.strip() == "2"


def test_compute_json_lines_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "--k", "2", "--n", "3", "--method", "all",
                       "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 4
    values = [r for r in records if r["type"] == "value"]
    assert {r["method"] for r in values} == {"conv", "trace", "spectral"}
    assert all(r["value"] == "19" for r in values)
    assert all(r["l"] == 6 for r in values)
    spectral_record = next(r for r in values if r["method"] == "spectral")
    assert spectral_record["strategy"] in ("double", "arbitrary")
    assert records[-1] == {"type": "verdict", "k": 2, "n": 3, "l": 6, "agree": True}


def test_compute_json_lines_reports_the_spectral_dimension(capsys):
    # The central sum of (1, 60) runs at N = 61, p_0 at the paper's 2kn+1.
    for extra, dim in (((), 61), (("--l", "0"), 121)):
        code, out, _ = run(capsys, "compute", "--k", "1", "--n", "60", *extra,
                           "--method", "all", "--format", "json-lines")
        assert code == 0
        records = json_lines(out)
        assert [r.get("dim") for r in records] == [None, None, dim, None]
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "60", "--method", "all")
    assert out.splitlines()[2:] == ["spectral 2665608276005367141972445389", "AGREE"]


def test_python_dash_m_runs_without_an_install():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "cnomial", "sequence", "--k", "1", "--count", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 1 3 7 19 51 141\n", "")


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "4", "--method", "all",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0]["method"] == "conv"
    assert rows[0]["value"] == "19"
    assert rows[3]["type"] == "verdict"
    assert rows[3]["agree"] == "True"


def test_compute_disagree_exits_nonzero(capsys, monkeypatch):
    real = cli.exact.coefficient

    def corrupted(params, l):
        return real(params, l) + 1

    monkeypatch.setattr(cli.exact, "coefficient", corrupted)
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "2", "--method", "all")
    assert code == 1
    assert out.splitlines()[-1] == "DISAGREE"


def test_compute_conv_central_stops_at_kn(capsys, monkeypatch):
    # At the centre the conv branch sums inclusion-exclusion at l = kn:
    # floor(21 / 7) = 3 steps, each the run b(b-1)...(b-6) over
    # a(a-1)...(a-6) with b = 21 - 7j and a = b + n - 1, and neither the
    # recurrence nor the row.
    central = cli.exact.expand_power(cli.Params(3, 7))[21]
    real = cli.exact.perm
    runs = []

    def recording(x, m):
        runs.append((x, m))
        return real(x, m)

    def refuse(*args):
        raise AssertionError("compute --method conv must not build a row")

    monkeypatch.setattr(cli.exact, "perm", recording)
    monkeypatch.setattr(cli.exact, "_recurrence_prefix", refuse)
    monkeypatch.setattr(cli.exact, "expand_power", refuse)
    code, out, _ = run(capsys, "compute", "--k", "3", "--n", "7", "--method", "conv")
    assert code == 0
    assert out.strip() == str(central)
    assert runs == [(21, 7), (27, 7), (14, 7), (20, 7), (7, 7), (13, 7)]


def test_compute_conv_reads_one_coefficient_without_the_row(capsys, monkeypatch):
    # A general l reads p_l by inclusion-exclusion at min(l, 2kn - l); no
    # route of `compute` builds the whole row.
    def refuse(params):
        raise AssertionError("compute must not expand the whole row")

    row = cli.exact.expand_power(cli.Params(3, 40))
    monkeypatch.setattr(cli.exact, "expand_power", refuse)
    for l in (0, 7, 120, 233, 240):
        code, out, _ = run(capsys, "compute", "--k", "3", "--n", "40", "--l", str(l),
                           "--method", "all")
        assert code == 0, l
        assert out.splitlines() == [f"{method} {row[l]}" for method in cli.METHODS] + ["AGREE"]


@pytest.mark.parametrize("k, n, l", [(3, 7, 21), (3, 7, 0), (1, 0, 0)], ids=["centre", "l=0", "n=0"])
def test_compute_all_calls_each_route_once(capsys, monkeypatch, k, n, l):
    # One entry point per route, at the centre (no --l) as at any other l.
    calls = []

    def recorder(module, name):
        real = getattr(module, name)

        def recorded(params, at):
            calls.append((name, params, at))
            return real(params, at)

        monkeypatch.setattr(module, name, recorded)

    recorder(cli.exact, "coefficient")
    recorder(cli.circulant, "coefficient_via_shift")
    recorder(cli.spectral, "coefficient_via_spectrum")
    at = [] if l == k * n else ["--l", str(l)]
    code, out, _ = run(capsys, "compute", "--k", str(k), "--n", str(n), *at, "--method", "all")
    assert (code, out.splitlines()[-1]) == (0, "AGREE")
    p = cli.Params(k, n)
    assert calls == [("coefficient", p, l), ("coefficient_via_shift", p, l),
                     ("coefficient_via_spectrum", p, l)]


def test_compute_out_of_range_l(capsys):
    code, _, err = run(capsys, "compute", "--k", "1", "--n", "2", "--l", "9")
    assert code == 2
    assert "l must be in [0, 4]" in err


def test_compute_bad_k(capsys):
    code, _, err = run(capsys, "compute", "--k", "0", "--n", "2")
    assert code == 2
    assert "k must be >= 1" in err


def test_certification_failure_exit(capsys, monkeypatch):
    # A ball rung starved to 8 bits cannot certify (1, 60).
    monkeypatch.setattr(cli.spectral, "required_bits", lambda params: 8)
    code, _, err = run(capsys, "compute", "--k", "1", "--n", "60",
                       "--method", "spectral")
    assert code == 1
    assert "certification failed" in err
    assert "residual" in err


def test_spectral_escalation_reported(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "60",
                       "--method", "spectral", "--format", "json-lines")
    assert code == 0
    record = json_lines(out)[0]
    assert record["strategy"] == "arbitrary"
    assert record["escalations"] >= 1
    assert record["value"].isdigit()


def test_sequence_plain(capsys):
    code, out, _ = run(capsys, "sequence", "--k", "1", "--count", "7")
    assert code == 0
    assert out.strip() == "1 1 3 7 19 51 141"


def test_sequence_pentanomial(capsys):
    code, out, _ = run(capsys, "sequence", "--k", "2", "--count", "4")
    assert code == 0
    assert out.strip() == "1 1 5 19"


def test_sequence_single_term(capsys):
    code, out, _ = run(capsys, "sequence", "--k", "1", "--count", "1", "--start-n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_sequence_start_offset(capsys):
    code, out, _ = run(capsys, "sequence", "--k", "1", "--count", "3", "--start-n", "3")
    assert code == 0
    assert out.strip() == "7 19 51"


def test_sequence_json_records(capsys):
    code, out, _ = run(capsys, "sequence", "--k", "3", "--count", "5",
                       "--method", "spectral", "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    assert [r["n"] for r in records] == [0, 1, 2, 3, 4]
    assert [r["value"] for r in records] == ["1", "1", "7", "37", "231"]
    assert all(r["method"] == "spectral" for r in records)


@pytest.mark.parametrize("method, module, run_name, per_n", [
    ("conv", cli.exact, "central_run", "coefficient"),
    ("trace", cli.circulant, "central_run", "coefficient_via_shift"),
])
def test_sequence_calls_its_routes_run_once(capsys, monkeypatch, method, module, run_name, per_n):
    # The window of n is one run of the route, looked up on its module at
    # the call, and the route's one-coefficient entry point is never called.
    calls = []
    real = getattr(module, run_name)

    def recorded(k, first, last):
        calls.append((k, first, last))
        return real(k, first, last)

    def refuse(params, l):
        raise AssertionError(f"sequence must not call {per_n}")

    monkeypatch.setattr(module, run_name, recorded)
    monkeypatch.setattr(module, per_n, refuse)
    code, out, _ = run(capsys, "sequence", "--k", "2", "--start-n", "3", "--count", "5",
                       "--method", method)
    assert (code, out) == (0, "19 85 381 1751 8135\n")
    assert calls == [(2, 3, 7)]


def test_oeis_calls_the_trace_run_once(capsys, monkeypatch):
    # oeis --offline takes its trace terms from one run, never per n.
    calls = []
    real = cli.circulant.central_run

    def recorded(k, first, last):
        calls.append((k, first, last))
        return real(k, first, last)

    def refuse(params, l):
        raise AssertionError("oeis must not call coefficient_via_shift")

    monkeypatch.setattr(cli.circulant, "central_run", recorded)
    monkeypatch.setattr(cli.circulant, "coefficient_via_shift", refuse)
    code, out, _ = run(capsys, "oeis", "--k", "3", "--count", "7", "--offline")
    assert code == 0, out
    assert calls == [(3, 0, 6)]


def test_sequence_bad_count(capsys):
    code, _, err = run(capsys, "sequence", "--k", "1", "--count", "0")
    assert code == 2
    assert "count" in err


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "1", "--n-max", "1")
    assert code == 0
    assert out.strip() == "1 case, 0 failures"


def test_verify_grid(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "10")
    assert code == 0
    assert out.strip() == "30 cases, 0 failures"


def test_verify_json_summary(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "2", "--n-max", "4",
                       "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    cases = [r for r in records if r["type"] == "case"]
    assert len(cases) == 8
    assert all(r["ok"] for r in cases)
    assert records[-1] == {"type": "summary", "cases": 8, "failures": 0}


def test_verify_seeded_is_reproducible(capsys):
    first = run(capsys, "verify", "--k-max", "2", "--n-max", "5", "--seed", "11",
                "--format", "json-lines")
    second = run(capsys, "verify", "--k-max", "2", "--n-max", "5", "--seed", "11",
                 "--format", "json-lines")
    assert first == second
    assert first[0] == 0


def test_verify_detects_corruption(capsys, monkeypatch):
    monkeypatch.setattr(cli.circulant, "coefficient_via_shift", lambda params, l: -7)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "2")
    assert code == 1
    assert out.strip() == "2 cases, 2 failures"
    assert "methods-equal" in err


def test_verify_detects_wrong_circulant_row(capsys, monkeypatch):
    # Perturb one entry of C^3 only: verify's full power at n = 3, never the
    # half powers that coefficient_via_shift forms for n <= 3.
    true_power = cli.circulant.matrix_power

    def perturbed(params, e):
        row = true_power(params, e)
        return row if e != 3 else row[:-1] + (row[-1] + 1,)

    monkeypatch.setattr(cli.circulant, "matrix_power", perturbed)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "3")
    assert code == 1
    assert out.strip() == "3 cases, 1 failure"
    assert err.strip() == "FAIL k=1 n=3: circulant-row"


def test_verify_detects_an_asymmetric_row(capsys, monkeypatch):
    # Swap p_2 and p_3 of the row at (1, 3), 1 3 6 7 6 3 1: the sum and
    # the edges hold, the mirror image does not.
    true_expand = cli.exact.expand_power

    def swapped(params):
        c = true_expand(params)
        return c if params.n != 3 else c[:2] + (c[3], c[2]) + c[4:]

    monkeypatch.setattr(cli.exact, "expand_power", swapped)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "3")
    assert code == 1
    assert out.strip() == "3 cases, 1 failure"
    assert "row-symmetry" in err.split(": ", 1)[1].strip().split(", ")


def test_verify_detects_wrong_window_row(capsys, monkeypatch):
    # Corrupt one entry of the window row at (k, n) = (1, 2) only: the last
    # of its two passes is the only one that returns five entries.
    true_times_ones = cli.exact._times_ones

    def corrupted(row, width):
        out = true_times_ones(row, width)
        if len(out) == 5:
            out[1] += 1
        return out

    monkeypatch.setattr(cli.exact, "_times_ones", corrupted)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "2")
    assert code == 1
    assert out.strip() == "2 cases, 1 failure"
    assert err.strip() == "FAIL k=1 n=2: exact-window"


def test_verify_detects_wrong_ratios(capsys, monkeypatch):
    # Move every ratio E_r by one part in 10^9: far below what moves the
    # rounded spectral sums of this grid, so the routes still agree, but
    # a thousand times the check's tolerance.  The check reads the central
    # sum's N: 3 at (1, 1) and (1, 2), where every ratio is 0, and 5 at
    # (1, 3).
    true_ratios = cli.spectral._ratios

    def skewed(m, sines):
        return [ratio * (1 + 1e-9) for ratio in true_ratios(m, sines)]

    monkeypatch.setattr(cli.spectral, "_ratios", skewed)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "3")
    assert code == 1
    assert out.strip() == "3 cases, 1 failure"
    assert err.strip() == "FAIL k=1 n=3: eigen-ratios"


def test_kernel_row_is_the_dirichlet_kernel_bit_for_bit():
    for k in range(1, 6):
        for dim in (3, 5, 21, 101):
            expected = [dirichlet_kernel(k, 2.0 * math.pi * r / dim)
                        for r in range(1, dim)]
            assert cli._kernel_row(2 * k + 1, dim) == expected


def test_verify_checks_the_mirrored_angle(capsys, monkeypatch):
    # Only the kernel at r = N - 1 moves: the ratio E_1 still matches r = 1,
    # but no longer its pair's other angle.
    true_row = cli._kernel_row

    def skewed(m, dim):
        row = true_row(m, dim)
        return row[:-1] + [row[-1] * (1 + 1e-9) + 1e-9]

    monkeypatch.setattr(cli, "_kernel_row", skewed)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "1")
    assert code == 1
    assert err.strip() == "FAIL k=1 n=1: eigen-ratios"


def test_verify_reports_the_disagreeing_values(capsys, monkeypatch):
    # One route off by one: the FAIL line and the case record carry every
    # route's value, and the failed names and the summary stay as they are.
    real = cli.circulant.coefficient_via_shift
    monkeypatch.setattr(cli.circulant, "coefficient_via_shift", lambda params, l: real(params, l) + 1)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "2")
    assert code == 1
    assert out.strip() == "2 cases, 2 failures"
    assert err.splitlines() == [
        "FAIL k=1 n=1: methods-equal (conv=1 trace=2 spectral=1)",
        "FAIL k=1 n=2: methods-equal (conv=3 trace=4 spectral=3)",
    ]
    code, out, _ = run(capsys, "verify", "--k-max", "1", "--n-max", "2",
                       "--format", "json-lines")
    assert code == 1
    case = json_lines(out)[1]
    assert case["failed"] == "methods-equal"
    assert case["values"] == {"methods-equal": {"conv": "3", "trace": "4", "spectral": "3"}}

    def uncertified(params, l):
        raise cli.CertificationError("starved", residual=1.0)

    monkeypatch.setattr(cli.spectral, "coefficient_via_spectrum", uncertified)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "1",
                         "--format", "json-lines")
    assert code == 1
    assert err.strip() == (
        "FAIL k=1 n=1: spectral-certified, methods-equal (conv=1 trace=2 spectral=uncertified)"
    )
    assert json_lines(out)[0]["values"] == {
        "methods-equal": {"conv": "1", "trace": "2", "spectral": None}
    }


def test_verify_reports_each_routes_coefficient(capsys, monkeypatch):
    real = cli.spectral.coefficient_via_spectrum

    def off_by_one(params, l):
        # The centre stays right, so that only the seeded l fail.
        result = real(params, l)
        return result if l == params.k * params.n else result._replace(value=result.value + 1)

    monkeypatch.setattr(cli.spectral, "coefficient_via_spectrum", off_by_one)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "3", "--seed", "5",
                         "--format", "json-lines")
    assert code == 1
    cases = [r for r in json_lines(out) if r["type"] == "case"]
    assert [r["ok"] for r in cases] == [False] * 3
    lines = err.splitlines()
    assert len(lines) == len(cases)
    for case, line in zip(cases, lines):
        row = cli.exact.expand_power(cli.Params(1, case["n"]))
        names = case["failed"].split(";")
        assert all(name.startswith("coefficient-l") for name in names)
        assert set(case["values"]) == set(names)
        described = []
        for name in names:
            l = int(name[len("coefficient-l"):])
            value = str(row[l])
            assert case["values"][name] == {
                "l": l, "conv": value, "trace": value, "spectral": str(row[l] + 1)
            }
            described.append(f"{name} (l={l} conv={value} trace={value} spectral={row[l] + 1})")
        assert line == f"FAIL k=1 n={case['n']}: {', '.join(described)}"
    code, out, _ = run(capsys, "verify", "--k-max", "1", "--n-max", "3", "--seed", "5",
                       "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert json.loads(rows[0]["values"]) == cases[0]["values"]


def test_verify_reports_uncertified_cases_and_goes_on(capsys, monkeypatch):
    # Drop the sign of every term, on both rungs (the midpoints of the ball
    # rung's powers, the double rung's ratios, whose denominators are
    # positive): the sums are wrong and some cannot certify.  Each such
    # case fails with spectral-certified, and the grid still reaches its
    # last case and the summary.
    true_spectrum, true_ratios = cli.spectral._row_spectrum, cli.spectral._ratios

    def wrong_sign(*args):
        for row in true_spectrum(*args):
            yield None if row is None else row._replace(xs=tuple(map(abs, row.xs)))

    monkeypatch.setattr(cli.spectral, "_row_spectrum", wrong_sign)
    monkeypatch.setattr(cli.spectral, "_ratios", lambda m, sines: list(map(abs, true_ratios(m, sines))))
    code, out, err = run(capsys, "verify", "--k-max", "3", "--n-max", "8",
                         "--format", "json-lines")
    assert code == 1
    records = json_lines(out)
    cases = [r for r in records if r["type"] == "case"]
    assert [(r["k"], r["n"]) for r in cases] == [
        (k, n) for k in range(1, 4) for n in range(1, 9)
    ]
    uncertified = [r for r in cases if "spectral-certified" in r["failed"].split(";")]
    assert uncertified
    for r in uncertified:
        assert f"FAIL k={r['k']} n={r['n']}: " in err
    failures = sum(not r["ok"] for r in cases)
    assert records[-1] == {"type": "summary", "cases": 24, "failures": failures}


def test_verify_bad_bounds(capsys):
    code, _, err = run(capsys, "verify", "--k-max", "0", "--n-max", "3")
    assert code == 2
    assert "k-max" in err


def test_bench_plain_table_shape(capsys):
    code, out, _ = run(capsys, "bench", "--k", "1", "--n", "100,1000",
                       "--method", "spectral,conv", "--repetitions", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 2 n-values x 2 methods
    assert lines[0].split() == ["method", "k", "n", "reps", "min_s", "median_s"]


def test_bench_default_methods(capsys):
    code, out, _ = run(capsys, "bench", "--k", "2", "--n", "50", "--repetitions", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + 3 methods


def test_bench_json_records(capsys):
    code, out, _ = run(capsys, "bench", "--k", "1", "--n", "8,16",
                       "--repetitions", "3", "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 6
    for record in records:
        assert record["repetitions"] == 3
        assert 0.0 <= record["min_s"] <= record["median_s"]
        assert set(record) == {"type", "method", "k", "n", "repetitions",
                               "min_s", "median_s"}


def test_bench_repetitions_start_from_cold_caches(capsys, monkeypatch):
    # The spectral route caches its row spectrum; every timed repetition
    # builds it again (a division per ball term), so none of them times a
    # cache hit.
    calls = []
    divide = cli.spectral._ball_div
    monkeypatch.setattr(cli.spectral, "_ball_div", lambda *args: calls.append(args) or divide(*args))
    counts = []
    for repetitions in ("1", "3"):
        calls.clear()
        code, _, _ = run(capsys, "bench", "--k", "1", "--n", "60", "--method", "spectral",
                         "--repetitions", repetitions)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == 3 * counts[0]


def test_bench_bad_method(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--k", "1", "--n", "10", "--method", "quantum"])
    assert info.value.code == 2


def test_bench_empty_method_list(capsys):
    # "," names no method: refused like an empty --n list, not read as "all".
    for methods in (",", ",,", ""):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--k", "1", "--n", "1", "--method", methods])
        assert info.value.code == 2
        assert "expected at least one method" in capsys.readouterr().err


def test_bench_all_with_other_methods(capsys):
    # "all" is a method name alone; beside others it is refused as such.
    for methods in ("all,conv", "conv,all", "all,all"):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--k", "1", "--n", "1", "--method", methods])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --method: 'all' cannot be combined with other methods" in err
        assert "must be one of" not in err


def test_offline_is_an_oeis_option_only(capsys):
    # The other commands never touch the network, so they take no --offline.
    for argv in (["compute", "--k", "1", "--n", "2"], ["sequence", "--k", "1", "--count", "2"],
                 ["verify", "--k-max", "1", "--n-max", "1"], ["bench", "--k", "1", "--n", "1"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--offline"])
        assert info.value.code == 2
        assert "unrecognized arguments: --offline" in capsys.readouterr().err


def test_bench_bad_n_list(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--k", "1", "--n", "ten"])
    assert info.value.code == 2


def test_oeis_fixture_match(capsys):
    # The default count is the fixtures' ten terms.
    for extra in ((), ("--count", "10")):
        code, out, _ = run(capsys, "oeis", "--k", "1", *extra, "--offline")
        assert code == 0
        assert out.strip() == "A002426 k=1: 10 terms compared, all equal (fixture)"


def test_oeis_offline_looks_the_fixture_up_once(capsys, monkeypatch):
    # The offline path reads the fixture it found, without a second lookup.
    lookups, lookup = [], oeis.fixture_for_id

    def counting(oeis_id):
        lookups.append(oeis_id)
        return lookup(oeis_id)

    monkeypatch.setattr(oeis, "fixture_for_id", counting)
    assert run(capsys, "oeis", "--k", "2", "--offline")[0] == 0
    assert lookups == ["A005191"]


def test_oeis_explicit_id(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A005191", "--k", "2",
                       "--count", "10", "--offline")
    assert code == 0
    assert "all equal" in out


def test_oeis_cross_sequence_mismatch(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A002426", "--k", "2",
                       "--count", "5", "--offline")
    assert code == 1
    assert "mismatch at n=2" in out
    assert "sequence has 3, computed 5" in out


def test_oeis_mismatch_names_both_routes(capsys, monkeypatch):
    # The spectral run alone disagrees at n = 3: the plain line and the
    # unequal record give both routes' values, not the trace value twice.
    real = oeis.spectral.central_run

    def run_off_by_one(k, first, last):
        return [result._replace(value=result.value + (first + i == 3))
                for i, result in enumerate(real(k, first, last))]

    monkeypatch.setattr(oeis.spectral, "central_run", run_off_by_one)
    code, out, _ = run(capsys, "oeis", "--k", "1", "--count", "5", "--offline")
    assert code == 1
    assert out == "A002426 k=1: mismatch at n=3: sequence has 7, computed trace 7, spectral 8 (fixture)\n"
    code, out, _ = run(capsys, "oeis", "--k", "1", "--count", "5", "--offline", "--format", "json-lines")
    assert code == 1
    comparisons = [r for r in json_lines(out) if r["type"] == "comparison"]
    assert comparisons[3] == {"type": "comparison", "oeis_id": "A002426", "k": 1, "n": 3,
                              "expected": "7", "computed": "7", "equal": False, "spectral": "8"}
    assert ["spectral" in r for r in comparisons] == [False, False, False, True, False]


def test_oeis_json_records(capsys):
    code, out, _ = run(capsys, "oeis", "--k", "3", "--count", "4", "--offline",
                       "--format", "json-lines")
    assert code == 0
    records = json_lines(out)
    comparisons = [r for r in records if r["type"] == "comparison"]
    assert [r["computed"] for r in comparisons] == ["1", "1", "7", "37"]
    assert records[-1]["all_equal"] is True
    assert records[-1]["source"] == "fixture"


def test_oeis_offline_cache_for_unregistered_id(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CNOMIAL_CACHE_DIR", str(tmp_path))
    oeis.fetch_bfile("A900000", 4, http_get=lambda url: TRINOMIAL_BFILE)
    code, out, _ = run(capsys, "oeis", "--id", "A900000", "--k", "1",
                       "--count", "4", "--offline")
    assert code == 0
    assert "all equal" in out
    assert "cache hit" in out


def test_oeis_usage_errors(capsys):
    code, _, err = run(capsys, "oeis", "--offline")
    assert code == 2 and "--id" in err
    code, _, err = run(capsys, "oeis", "--id", "X123", "--offline")
    assert code == 2 and "six digits" in err
    code, _, err = run(capsys, "oeis", "--k", "4", "--offline")
    assert code == 2 and "no registered OEIS id" in err
    code, _, err = run(capsys, "oeis", "--id", "A999999", "--offline")
    assert code == 2 and "pass --k" in err
    code, _, err = run(capsys, "oeis", "--k", "1", "--count", "99", "--offline")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "oeis", "--k", "1", "--count", "11", "--offline")
    assert code == 2 and "count 11 exceeds the 10 available terms" in err


def test_oeis_offline_without_cache(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CNOMIAL_CACHE_DIR", str(tmp_path))
    code, _, err = run(capsys, "oeis", "--id", "A999999", "--k", "1",
                       "--count", "3", "--offline")
    assert code == 1
    assert "no cache" in err


# 5000 digits, over CPython's default int/str conversion limit of 4300, so
# the digits are written out rather than taken from str(BIG).
BIG = 7 * 10**4999 + 3
BIG_DIGITS = "7" + "0" * 4998 + "3"


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["compute", "--k", "1", "--n", "3", "--method", "trace"], 0, BIG_DIGITS),
        (["sequence", "--k", "1", "--count", "1", "--start-n", "3",
          "--method", "trace"], 0, BIG_DIGITS),
        (["oeis", "--k", "1", "--count", "4", "--offline"], 1,
         f"A002426 k=1: mismatch at n=3: sequence has 7, computed trace {BIG_DIGITS}, spectral 7 (fixture)"),
    ],
    ids=["compute", "sequence", "oeis"],
)
def test_values_over_int_str_digit_limit(capsys, monkeypatch, argv, code, line):
    # The trace route gives BIG at n = 3: compute through its one
    # coefficient, sequence and oeis through its run of n.
    real, real_run = cli.circulant.coefficient_via_shift, cli.circulant.central_run

    def route(params, l):
        return BIG if params.n == 3 else real(params, l)

    def run_route(k, first, last):
        return [BIG if first + i == 3 else value for i, value in enumerate(real_run(k, first, last))]

    monkeypatch.setattr(cli.circulant, "coefficient_via_shift", route)
    monkeypatch.setattr(cli.circulant, "central_run", run_route)
    status, out, err = run(capsys, *argv)
    assert (status, err) == (code, "")
    assert out.strip() == line
    status, out, _ = run(capsys, *argv, "--format", "json-lines")
    assert status == code
    assert BIG_DIGITS in {r.get("value", r.get("computed")) for r in json_lines(out)}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_leaks_no_value_between_requests(capsys):
    # The same argv after a different one prints what it prints after a
    # fresh parser: no option of the first request sticks.
    first = ["compute", "--k", "3", "--n", "40", "--l", "3", "--method", "all",
             "--format", "json-lines"]
    second = ["compute", "--k", "3", "--n", "40"]
    expected = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        cli._command_tables.cache_clear()
        expected.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    cli._command_tables.cache_clear()
    assert [run(capsys, *argv) for argv in (first, second)] == expected
    assert expected[1] == (0, "200018125733654567755310652383117\n", "")


@pytest.mark.parametrize("option", [["--precision", "arbitrary"], ["--mantissa-bits", "200"]])
def test_removed_precision_options_are_usage_errors(capsys, option):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--k", "1", "--n", "60", "--method", "spectral", *option])
    assert info.value.code == 2


def test_runs_on_the_standard_library_alone():
    # The spectral route seeds its sines in integers: no request imports mpmath.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys\n"
        "from cnomial import cli\n"
        "codes = [cli.main(['compute', '--k', '3', '--n', '40', '--method', 'all']),\n"
        "         cli.main(['verify', '--k-max', '2', '--n-max', '6', '--seed', '1'])]\n"
        "assert codes == [0, 0], codes\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_import_leaves_the_network_modules_out():
    # urllib.request (and http.client behind it) load only when a b-file
    # is fetched from the network, never at import.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys\n"
        "import cnomial.cli\n"
        "loaded = {'urllib.request', 'http.client'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


ROOT = Path(__file__).resolve().parent.parent

#: Bad and help argv, which argparse reads, and canonical ones, which the
#: option tables read: the namespace, output and exit code are argparse's.
PARSE_ARGV = [
    [], ["--help"], ["-h"], ["-h", "compute"], ["transmogrify"], ["COMPUTE", "--k", "1"],
    ["--", "compute", "--k", "1", "--n", "2"], ["compute"], ["compute", "--help"], ["compute", "-h"],
    ["compute", "--k", "1", "--n", "2", "--he"], ["compute", "--k", "1", "--n", "2", "--help", "--bogus"],
    ["compute", "--k", "x", "--n", "1"], ["compute", "--k", "1", "--n", "1", "--bogus"],
    ["compute", "--k", "1", "--n", "1", "extra", "more"], ["compute", "--k", "1", "--n", "2", "--l"],
    ["compute", "--k", "1", "--n", "2", "--method", "nope"], ["compute", "--for", "json", "--k", "1", "--n", "2"],
    ["compute", "--k", "1", "--n", "2", "--", "--l", "3"], ["compute", "--version"],
    ["sequence", "--k", "1", "--count", "2", "--", "x"], ["sequence", "-k", "1"],
    ["verify", "--k-max", "1"], ["verify", "--k-max", "1", "--n-max", "2", "--seed", "x"],
    ["bench", "--k", "1", "--n", "a,b"], ["bench", "--k", "1", "--n", "1", "--method", "conv,bad"],
    ["oeis", "--k", "1", "--offline", "-h"], ["oeis", "--bogus"],
    # and good ones, whose namespaces must match too
    ["compute", "--k=1", "--n=2", "--method=all", "--for", "csv"],
    ["sequence", "--k", "2", "--count", "3", "--start-n", "4", "--format", "json-lines"],
    ["bench", "--k", "1", "--n", "1,2", "--method", "conv"],
    # canonical: one per command, a repeated option, shuffled order
    ["compute", "--k", "2", "--n", "30", "--l", "7", "--method", "all", "--format", "json-lines"],
    ["compute", "--method", "trace", "--n", "4", "--k", "1", "--k", "3", "--method", "spectral"],
    ["sequence", "--method", "spectral", "--count", "3", "--start-n", "0", "--k", "1"],
    ["verify", "--seed", "0", "--n-max", "3", "--k-max", "1", "--format", "csv", "--format", "plain"],
    ["bench", "--k", "1", "--n", "1,2", "--method", "conv,trace"],
    ["oeis", "--id", "A002426", "--k", "1", "--count", "3"],
    ["oeis", "--k", "1", "--offline", "--format", "json-lines"],
    ["oeis"], ["compute", "--k", "1", "--n", "1_0", "--l", ""], ["oeis", "--id", "", "--count", "0"],
    # canonical in shape, but argparse's to answer
    ["compute", "--k", "1", "--n", "-2"], ["compute", "--k", "1", "--n", ""], ["sequence", "--k", "1"],
    ["compute", "--k", "1", "--n", "2", "--method", "trace", "--method", "bad"],
    ["bench", "--k", "1", "--n", "1", "--method", "all,conv"],
    ["oeis", "--id", "-h"], ["oeis", "--k", "1", "--id", "--offline"], ["oeis", "--id", "-1"],
    # an empty method list, refused
    ["bench", "--k", "1", "--n", "1", "--method", ","],
]


def parsed(parse, argv):
    """(namespace, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exit:
            code = exit.code
    return namespace, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_command_parser_dispatch_matches_the_top_level_parser(argv):
    # Usage, help and error text, exit codes and namespaces, byte for byte.
    expected = parsed(cli.build_parser().parse_args, argv)
    assert parsed(cli._parse_args, argv) == expected
    assert expected[0] is not None or expected[1] in (0, 2)


def _vocabulary() -> tuple[dict, list[str], list[str]]:
    """Per command, each option string with the values argparse accepts for it
    (None for a flag) and whether it is required; every option string; values.
    All read off the parsers' own actions."""
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    choices = sorted({choice for command in sub.choices.values() for action in command._actions
                      if action.choices for choice in action.choices})
    values = ["0", "3", "-1", "-0", "-x", "--k", "-h", "", "x", "1_0", " 2", "9" * 4301, "1,2", "1,", ",",
              "conv,trace", "conv,bad", "all,conv", "A002426", "B1", "nope", *choices]

    def accepts(command, action, value):
        try:
            command._check_value(action, command._get_value(action, value))
        except argparse.ArgumentError:
            return False
        return not value.startswith("-")

    commands = {
        name: {option: (None if action.nargs == 0 else [v for v in values if accepts(command, action, v)],
                        action.required)
               for action in command._actions if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
        for name, command in sub.choices.items()
    }
    options = sorted({option for command in sub.choices.values() for option in command._option_string_actions})
    return commands, options, values


COMMANDS, OPTIONS, VALUES = _vocabulary()
#: Tokens that are no exact option string: prefixes, ``=`` forms, ``--``, help, stray words.
STRAYS = sorted({option[:cut] for option in OPTIONS for cut in (2, 3, 5) if option[:cut] not in OPTIONS}
                | {f"{option}={value}" for option in OPTIONS[:4] for value in ("1", "", "-1")}
                | {"--", "-", "-h", "--help", "extra", "compute", "--bogus"})


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_option_tables_answer_as_argparse_does(data):
    # The command's own options with values it accepts, its required ones
    # often among them, answered by the tables; half the time with one
    # token of any option and value, or a stray one, for argparse to answer.
    command = data.draw(st.sampled_from([*COMMANDS, "transmogrify", "--k", "-h"]))
    own = COMMANDS.get(command, {})

    def item(option):
        good, _ = own[option]
        if good is None:
            return st.just((option,))
        return st.tuples(st.just(option), st.sampled_from(good))

    items = data.draw(st.lists(st.sampled_from(sorted(own)).flatmap(item), max_size=6)) if own else []
    if data.draw(st.booleans()):
        items += [data.draw(item(option)) for option, (_, needed) in own.items() if needed]
    if data.draw(st.booleans()):
        items.append(data.draw(st.one_of(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
                                         st.tuples(st.sampled_from(STRAYS + VALUES)))))
    items = data.draw(st.permutations(items))
    argv = [command, *(token for item in items for token in item)]
    expected = parsed(cli.build_parser().parse_args, argv)
    assert parsed(cli._parse_args, argv) == expected


def _perfbench_argv() -> list[list[str]]:
    """Every argv shape the benchmark sends: each workload's batch and the runner's warm-up."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (warmup,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["WARMUP"]]
    return [*ast.literal_eval(warmup),
            *(argv for name in sorted(workloads.BATCHES) for argv in workloads.batch(name, 1))]


def test_benchmark_requests_skip_argparse(monkeypatch):
    # Every command has a table, and every request the benchmark sends is
    # read off it: argparse's own parse would raise here.
    assert set(cli._command_tables()) == set(COMMANDS)
    requests = _perfbench_argv()
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in requests]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [vars(cli._parse_args(argv)) for argv in requests] == expected


def test_canonical_argv_builds_no_parser(monkeypatch):
    # The tables come from the command table itself: a process whose
    # requests are all canonical never builds argparse's parser.
    requests = _perfbench_argv()
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in requests]

    def refuse():
        raise AssertionError("a canonical argv built argparse's parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    cli._command_tables.cache_clear()
    assert [vars(cli._parse_args(argv)) for argv in requests] == expected


def test_no_str_default_has_a_converting_type():
    # Argparse converts a str default by the option's type when the option
    # is not given; the tables keep defaults as declared.
    for _, _, options in cli._COMMANDS.values():
        for option in options:
            assert not isinstance(option.default, str) or option.type is None, option
