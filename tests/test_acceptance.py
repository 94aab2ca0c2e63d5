"""End-to-end acceptance checks, one per shipping requirement.

Each test prints a single ``ACCEPTANCE <i>: PASS/FAIL`` line (outside
pytest's capture) so a log scrape shows the verdict per criterion.
"""
import json
import math
import time

import pytest
from dense import dense_power, to_dense
from dirichlet import dirichlet_kernel
from sparse import build_central

from cnomial import circulant, exact, oeis, spectral
from cnomial.cli import main
from cnomial.params import Params

TOL = 1e-12


def _report(capsys, number, ok, summary):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {verdict} - {summary}")
    assert ok, f"acceptance {number}: {summary}"


def _close(a, b, tol=TOL):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def test_acceptance_1_three_methods_agree_on_grid(capsys):
    start = time.monotonic()
    cases = 0
    ok = True
    for k in range(1, 5):
        for n in range(1, 31):
            params = Params(k, n)
            conv = exact.coefficient(params, k * n)
            trace = circulant.coefficient_via_shift(params, k * n)
            spect = spectral.coefficient_via_spectrum(params, k * n).value
            if not (conv == trace == spect):
                ok = False
            cases += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 1, ok,
            f"conv == trace == spectral on {cases} (k, n) cases in {elapsed:.1f}s")


def test_acceptance_2_general_coefficients_match_expansion(capsys):
    start = time.monotonic()
    checked = 0
    ok = True
    for k in range(1, 4):
        for n in range(1, 13):
            params = Params(k, n)
            row = exact.expand_power(params)
            for l in range(params.degree + 1):
                shift = circulant.coefficient_via_shift(params, l)
                spect = spectral.coefficient_via_spectrum(params, l).value
                if shift != row[l] or spect != row[l]:
                    ok = False
                checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 2, ok,
            f"shift and spectral reads match the expansion at {checked} "
            f"coefficients in {elapsed:.1f}s")


def test_acceptance_3_golden_ratio_anchor(capsys):
    params = Params(1, 2)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    ratios = list(spectral._ratios(params.width, spectral._sine_table(params.dim)))
    expected = (phi, -1.0 / phi)
    spectrum_ok = len(ratios) == 2 and all(
        _close(v, e, 1e-12) for v, e in zip(ratios, expected)
    )
    by_hand = (9.0 + phi**2 + phi**-2 + phi**-2 + phi**2) / 5.0
    # The golden-ratio sum is the paper's N = 5; the route's central sum
    # runs at N = 3.
    paper_value, paper_residual = spectral._double_rung(params, params.dim, None)
    result = spectral.coefficient_via_spectrum(params, params.k * params.n)
    ok = (spectrum_ok
          and _close(by_hand, 3.0, 1e-14)
          and paper_value == 3
          and paper_residual < 1e-9
          and result.value == 3
          and result.residual < 1e-9
          and result.policy_used.strategy == "double")
    _report(capsys, 3, ok,
            f"(k=1, n=2) ratios E_1, E_2 are (phi, -1/phi) and the sum "
            f"certifies 3 at double precision with residual {result.residual:.2e}")


def test_acceptance_4_sequence_fixtures_match_independent_route(capsys):
    # The fixtures are the OEIS entries' first ten terms, typed in; every
    # route must reproduce them.
    ok = True
    for k, oeis_id in sorted(oeis.OEIS_BY_K.items()):
        fixture = oeis.fixture_for_k(k)
        ok = ok and fixture.oeis_id == oeis_id and len(fixture.terms) == 10
        for n, term in enumerate(fixture.terms):
            params = Params(k, n)
            ok = ok and term == exact.coefficient(params, k * n)
            ok = ok and term == circulant.coefficient_via_shift(params, k * n)
            ok = ok and term == spectral.coefficient_via_spectrum(params, k * n).value
    _report(capsys, 4, ok,
            "bundled A002426/A005191/A025012 prefixes (n = 0..9, from the OEIS "
            "entries) match the conv, trace and spectral routes")


@pytest.mark.network
def test_acceptance_4_fixtures_match_fetched_bfiles(capsys):
    ok = True
    for k, oeis_id in sorted(oeis.OEIS_BY_K.items()):
        fixture = oeis.fixture_for_k(k)
        fetched = oeis.fetch_bfile(oeis_id, len(fixture.terms))
        if fetched.terms != fixture.terms:
            ok = False
    _report(capsys, 4, ok,
            "bundled prefixes also match the fetched OEIS b-files (network)")


def test_acceptance_5_structural_invariants(capsys):
    checks = 0
    ok = True
    for k in range(1, 5):
        for n in range(1, 13):
            params = Params(k, n)
            dim = params.dim
            row = exact.expand_power(params)

            if row != row[::-1]:
                ok = False
            if sum(row) != params.width**n:
                ok = False
            if row[0] != 1 or row[1] != n:
                ok = False
            checks += 4

            shift = k * n
            if circulant.matrix_power(params, n) != row[shift:] + row[:shift]:
                ok = False
            checks += 1

            # The route's ratios E_r, r = 1..floor(N/2), against the Dirichlet
            # kernel at 2 pi r/N, and at 2 pi (N - r)/N: the pair E_r = E_{N-r}
            # that the spectral sum doubles.
            ratios = list(spectral._ratios(params.width, spectral._sine_table(dim)))
            if len(ratios) != dim // 2:
                ok = False
            for r, ratio in enumerate(ratios, 1):
                for angle in (r, dim - r):
                    theta = 2.0 * math.pi * angle / dim
                    if not _close(ratio, dirichlet_kernel(k, theta)):
                        ok = False
                    checks += 1

            central = row[params.k * n]
            if not (central == circulant.coefficient_via_shift(params, k * n)
                    == spectral.coefficient_via_spectrum(params, k * n).value):
                ok = False
            checks += 1
    _report(capsys, 5, ok,
            f"symmetry, row sums, edge values, circulant row rotation, eigenvalue "
            f"pairing and ratio/Dirichlet agreement: {checks} checks")


def test_acceptance_6_escalation_recovers_wide_case(capsys):
    params = Params(1, 60)
    needs = spectral.required_bits(params)
    _, double_residual = spectral._double_rung(
        params, spectral.dimension(params, 0), None)
    result = spectral.coefficient_via_spectrum(params, params.k * params.n)
    oracle = exact.coefficient(params, params.k * params.n)
    ok = (needs > 52
          and double_residual >= spectral.DEFAULT_RESIDUAL_CAP
          and result.escalations >= 1
          and result.policy_used.strategy == "arbitrary"
          and result.value == oracle)
    _report(capsys, 6, ok,
            f"(k=1, n=60) needs {needs} mantissa bits: double residual "
            f"{double_residual:.3g} forces {result.escalations} escalation(s) and the "
            f"arbitrary-precision value matches the exact expansion")


def test_acceptance_7_dense_power_reproduces_circulant_power(capsys):
    cases = 0
    ok = True
    for k in range(1, 5):
        n = 1
        while 2 * k * n + 1 <= 31:
            params = Params(k, n)
            base = build_central(params)
            dense = dense_power(to_dense(base), n)
            if tuple(dense[0]) != circulant.matrix_power(params, n):
                ok = False
            cases += 1
            n += 1
    _report(capsys, 7, ok,
            f"naive dense matrix powers reproduce the circulant first row for "
            f"{cases} cases with dimension <= 31")


def test_acceptance_8_bench_runs_and_reports(capsys):
    code = main(["bench", "--k", "1", "--n", "8,16", "--repetitions", "2",
                 "--format", "json-lines"])
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    ok = code == 0 and len(records) == 6
    for record in records:
        ok = ok and {"method", "k", "n", "repetitions",
                     "min_s", "median_s"} <= set(record)
        ok = ok and 0.0 <= record["min_s"] <= record["median_s"]

    code_plain = main(["bench", "--k", "2", "--n", "10", "--repetitions", "1"])
    plain = capsys.readouterr().out.strip().splitlines()
    ok = (ok and code_plain == 0 and len(plain) == 4
          and plain[0].split() == ["method", "k", "n", "reps",
                                   "min_s", "median_s"])
    _report(capsys, 8, ok,
            "bench completes on both output formats with well-formed timing rows")
