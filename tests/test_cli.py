"""Command-line contract: outputs, formats, and exit codes."""
import csv
import io
import json

import pytest

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
    assert spectral_record["strategy"] in ("double", "compensated", "arbitrary")
    assert records[-1] == {"type": "verdict", "k": 2, "n": 3, "l": 6, "agree": True}


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
    real = cli.exact.central_coefficient

    def corrupted(params):
        return real(params) + 1

    monkeypatch.setattr(cli.exact, "central_coefficient", corrupted)
    code, out, _ = run(capsys, "compute", "--k", "1", "--n", "2", "--method", "all")
    assert code == 1
    assert out.splitlines()[-1] == "DISAGREE"


def test_compute_conv_central_stops_at_kn(capsys, monkeypatch):
    # At the centre the conv branch runs the recurrence to p_kn only, never
    # to the end of the row.
    real = cli.exact._recurrence_prefix
    central = cli.exact.expand_power(cli.Params(3, 7)).central
    lasts = []

    def recording(params, last):
        lasts.append(last)
        return real(params, last)

    monkeypatch.setattr(cli.exact, "_recurrence_prefix", recording)
    code, out, _ = run(capsys, "compute", "--k", "3", "--n", "7", "--method", "conv")
    assert code == 0
    assert out.strip() == str(central)
    assert lasts == [21]


def test_compute_out_of_range_l(capsys):
    code, _, err = run(capsys, "compute", "--k", "1", "--n", "2", "--l", "9")
    assert code == 2
    assert "l must be in [0, 4]" in err


def test_compute_bad_k(capsys):
    code, _, err = run(capsys, "compute", "--k", "0", "--n", "2")
    assert code == 2
    assert "k must be >= 1" in err


def test_certification_failure_exit(capsys):
    code, _, err = run(capsys, "compute", "--k", "1", "--n", "60",
                       "--method", "spectral", "--precision", "arbitrary",
                       "--mantissa-bits", "8")
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
    monkeypatch.setattr(cli.circulant, "central_via_trace", lambda params: -7)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "2")
    assert code == 1
    assert out.strip() == "2 cases, 2 failures"
    assert "methods-equal" in err


def test_verify_detects_wrong_circulant_row(capsys, monkeypatch):
    # Perturb one entry of C^3 only: verify's full power at n = 3, never the
    # half powers that central_via_trace forms for n <= 3.
    true_power = cli.circulant.matrix_power

    def perturbed(a, n):
        power = true_power(a, n)
        if n != 3:
            return power
        row = power.first_row
        return cli.circulant.CirculantMatrix(power.dim, row[:-1] + (row[-1] + 1,))

    monkeypatch.setattr(cli.circulant, "matrix_power", perturbed)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "3")
    assert code == 1
    assert out.strip() == "3 cases, 1 failure"
    assert err.strip() == "FAIL k=1 n=3: circulant-row"


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
    # Flip the sign of every ratio E_r.  The spectral sum only sees E_r^n,
    # so at n = 2 the routes still agree; at (1, 1) the one ratio is 0.
    true_ratios = cli.spectral._ratios

    def flipped(m, sines):
        return (-ratio for ratio in true_ratios(m, sines))

    monkeypatch.setattr(cli.spectral, "_ratios", flipped)
    code, out, err = run(capsys, "verify", "--k-max", "1", "--n-max", "2")
    assert code == 1
    assert out.strip() == "2 cases, 1 failure"
    assert err.strip() == "FAIL k=1 n=2: eigen-ratios"


def test_verify_reports_uncertified_cases_and_goes_on(capsys, monkeypatch):
    # Fold every numerator with the wrong sign: the sums are wrong and some
    # cannot certify.  Each such case fails with spectral-certified, and
    # the grid still reaches its last case and the summary.
    true_numerators = cli.spectral._numerators

    def wrong_sign(m, dim):
        return ((1, j) for _, j in true_numerators(m, dim))

    monkeypatch.setattr(cli.spectral, "_numerators", wrong_sign)
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


def test_bench_bad_method(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--k", "1", "--n", "10", "--method", "quantum"])
    assert info.value.code == 2


def test_bench_bad_n_list(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--k", "1", "--n", "ten"])
    assert info.value.code == 2


def test_oeis_fixture_match(capsys):
    code, out, _ = run(capsys, "oeis", "--k", "1", "--count", "15", "--offline")
    assert code == 0
    assert "A002426 k=1: 15 terms compared, all equal" in out


def test_oeis_explicit_id(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A005191", "--k", "2",
                       "--count", "15", "--offline")
    assert code == 0
    assert "all equal" in out


def test_oeis_cross_sequence_mismatch(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A002426", "--k", "2",
                       "--count", "5", "--offline")
    assert code == 1
    assert "mismatch at n=2" in out
    assert "sequence has 3, computed 5" in out


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
         f"A002426 k=1: mismatch at n=3: sequence has 7, computed {BIG_DIGITS} (fixture)"),
    ],
    ids=["compute", "sequence", "oeis"],
)
def test_values_over_int_str_digit_limit(capsys, monkeypatch, argv, code, line):
    real = cli.circulant.central_via_trace

    def route(params):
        return BIG if params.n == 3 else real(params)

    monkeypatch.setattr(cli.circulant, "central_via_trace", route)
    monkeypatch.setattr(oeis, "central_via_trace", route)
    status, out, err = run(capsys, *argv)
    assert (status, err) == (code, "")
    assert out.strip() == line
    status, out, _ = run(capsys, *argv, "--format", "json-lines")
    assert status == code
    assert BIG_DIGITS in {r.get("value", r.get("computed")) for r in json_lines(out)}


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2
