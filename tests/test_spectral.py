"""Spectral sums, eigenvalue evaluators, and the precision certificate."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnomial import (
    EIGENVALUE_METHODS,
    CertificationError,
    Params,
    PrecisionPolicy,
    central_coefficient,
    central_via_spectrum,
    coefficient_via_spectrum,
    dirichlet_kernel,
    eigenvalues,
    expand_power,
    required_bits,
)
from cnomial import spectral

PHI = (1 + math.sqrt(5)) / 2


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_golden_ratio_spectrum():
    # sin(3pi/5)/sin(pi/5) is the golden ratio; pairs r=2<->5, r=3<->4
    values = eigenvalues(Params(1, 2)).values
    expected = (3.0, PHI, -1 / PHI, -1 / PHI, PHI)
    assert len(values) == 5
    assert values[0] == 3.0
    assert all(close(v, e) for v, e in zip(values, expected))


def test_first_eigenvalue_is_width_exactly():
    for k in range(1, 5):
        for n in (1, 2, 7):
            for method in EIGENVALUE_METHODS:
                assert eigenvalues(Params(k, n), method).values[0] == 2 * k + 1


def test_vanishing_spectrum_at_n_one():
    values = eigenvalues(Params(1, 1)).values
    assert values[0] == 3.0
    assert abs(values[1]) < 1e-12 and abs(values[2]) < 1e-12


def test_method_tag_recorded():
    assert eigenvalues(Params(1, 2), "chebyshev").method == "chebyshev"


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        eigenvalues(Params(1, 2), "fft")


def test_eigenvalues_need_positive_n():
    with pytest.raises(ValueError):
        eigenvalues(Params(2, 0))


def test_degeneracy_all_methods():
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            for method in EIGENVALUE_METHODS:
                values = eigenvalues(p, method).values
                for r in range(2, p.dim + 1):
                    assert close(values[r - 1], values[(p.dim + 2 - r) - 1]), (
                        k, n, method, r,
                    )


def test_methods_and_dirichlet_agree():
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            sets = [eigenvalues(p, m).values for m in EIGENVALUE_METHODS]
            kernel = [
                dirichlet_kernel(k, 2.0 * math.pi * r / p.dim) for r in range(p.dim)
            ]
            for i in range(p.dim):
                reference = sets[0][i]
                assert all(close(s[i], reference) for s in sets), (k, n, i)
                assert close(kernel[i], reference), (k, n, i)


def test_spectrum_sums_to_dim():
    # sum of eigenvalues = trace of the central circulant = N * 1
    for k in range(1, 4):
        for n in range(1, 8):
            p = Params(k, n)
            total = math.fsum(eigenvalues(p).values)
            assert abs(total - p.dim) < 1e-9 * p.dim


def test_spectrum_magnitude_bounded():
    for k in range(1, 4):
        for n in range(1, 8):
            values = eigenvalues(Params(k, n)).values
            assert all(abs(v) <= 2 * k + 1 + 1e-9 for v in values)


def test_dirichlet_removable_singularity():
    for k in range(1, 6):
        assert dirichlet_kernel(k, 0.0) == 2 * k + 1


def test_dirichlet_golden_ratio():
    assert close(dirichlet_kernel(1, 2 * math.pi / 5), PHI)


def test_dirichlet_at_pi():
    # sin(3pi/2)/sin(pi/2) = -1
    assert close(dirichlet_kernel(1, math.pi), -1.0)


def test_required_bits_examples():
    assert required_bits(Params(1, 2)) == 39
    assert required_bits(Params(1, 1)) == 36
    assert required_bits(Params(2, 10)) == 62


def test_required_bits_monotone():
    for k in range(1, 5):
        for n in range(1, 12):
            here = required_bits(Params(k, n))
            assert required_bits(Params(k + 1, n)) >= here
            assert required_bits(Params(k, n + 1)) >= here


def test_central_anchor_golden_ratio():
    # (9 + phi^2 + phi^-2 + phi^-2 + phi^2) / 5 = 3 since phi^2 + phi^-2 = 3
    assert abs((9 + 2 * (PHI**2 + PHI**-2)) / 5 - 3) < 1e-12
    result = central_via_spectrum(Params(1, 2))
    assert result.value == 3
    assert result.residual < 1e-9
    assert result.policy_used.strategy == "double"
    assert result.escalations == 0


def test_central_identity_case():
    assert central_via_spectrum(Params(1, 1)).value == 1


def test_central_zero_power():
    assert central_via_spectrum(Params(3, 0)).value == 1


def test_central_heptanomial_matches_oracle():
    p = Params(3, 4)
    result = central_via_spectrum(p)
    assert result.value == central_coefficient(p) == 231


def test_central_matches_oracle_on_grid():
    for k in range(1, 4):
        for n in range(1, 16):
            p = Params(k, n)
            assert central_via_spectrum(p).value == central_coefficient(p), (k, n)


def test_coefficient_examples():
    assert coefficient_via_spectrum(Params(1, 2), 1).value == 2
    assert (
        coefficient_via_spectrum(Params(1, 2), 2).value
        == central_via_spectrum(Params(1, 2)).value
    )
    assert coefficient_via_spectrum(Params(2, 3), 0).value == 1


def test_coefficient_full_rows():
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            row = expand_power(p).coeffs
            for l in range(p.degree + 1):
                assert coefficient_via_spectrum(p, l).value == row[l], (k, n, l)


def test_coefficient_range_error():
    with pytest.raises(ValueError):
        coefficient_via_spectrum(Params(1, 2), 5)


def test_parseval_row_energy():
    # sum of squared coefficients of P^n is the central coefficient of P^{2n}
    for k in range(1, 4):
        for n in range(1, 7):
            row = expand_power(Params(k, n)).coeffs
            assert sum(c * c for c in row) == central_coefficient(Params(k, 2 * n))


def test_double_certifies_within_its_budget():
    # wherever the bit budget fits a double mantissa, no escalation happens
    cases = 0
    for k in range(1, 7):
        for n in range(1, 13):
            p = Params(k, n)
            if required_bits(p) > 52:
                continue
            result = central_via_spectrum(p)
            assert result.policy_used.strategy == "double"
            assert result.escalations == 0
            assert result.residual < 0.25
            cases += 1
    assert cases > 10


def test_escalation_to_arbitrary():
    # 3^60 dwarfs 2^53: the double pass cannot certify and must escalate
    p = Params(1, 60)
    assert required_bits(p) > 52
    _, residual = spectral._evaluate_double(p, None, compensated=False)
    assert residual >= 0.25
    result = central_via_spectrum(p)
    assert result.escalations >= 1
    assert result.policy_used.strategy == "arbitrary"
    assert result.policy_used.mantissa_bits == required_bits(p)
    assert result.value == central_coefficient(p)


def test_escalation_count_is_two_from_double():
    assert central_via_spectrum(Params(1, 60)).escalations == 2


def test_overflowing_double_sum_escalates_and_recovers():
    # 3^800 overflows a double entirely; the saturated (inf) pass must fall
    # through the ladder and still land on the exact value.
    p = Params(1, 800)
    result = central_via_spectrum(p)
    assert result.policy_used.strategy == "arbitrary"
    assert result.escalations == 2
    assert result.value == central_coefficient(p)


def test_compensated_start():
    result = central_via_spectrum(Params(1, 4), PrecisionPolicy(strategy="compensated"))
    assert result.value == 19
    assert result.policy_used.strategy == "compensated"
    assert result.escalations == 0


def test_arbitrary_start_uses_computed_budget():
    result = central_via_spectrum(Params(1, 2), PrecisionPolicy(strategy="arbitrary"))
    assert result.value == 3
    assert result.policy_used.strategy == "arbitrary"
    assert result.policy_used.mantissa_bits == required_bits(Params(1, 2))
    assert result.escalations == 0


def test_explicit_ample_budget_honored():
    policy = PrecisionPolicy(strategy="arbitrary", mantissa_bits=200)
    result = central_via_spectrum(Params(1, 60), policy)
    assert result.value == central_coefficient(Params(1, 60))
    assert result.policy_used.mantissa_bits == 200


def test_starved_budget_fails_certification():
    policy = PrecisionPolicy(strategy="arbitrary", mantissa_bits=8)
    with pytest.raises(CertificationError) as info:
        central_via_spectrum(Params(1, 60), policy)
    assert info.value.residual >= policy.residual_cap
    assert info.value.policy is policy
    assert info.value.rungs == (("arbitrary", 8, info.value.residual),)


def test_rungs_record_every_rung_tried():
    p = Params(1, 60)
    result = central_via_spectrum(p)
    assert [strategy for strategy, _, _ in result.rungs] == list(spectral.STRATEGIES)
    assert [bits for _, bits, _ in result.rungs] == [53, 53, required_bits(p)]
    assert all(residual >= 0.25 for _, _, residual in result.rungs[:-1])
    assert result.rungs[-1][2] == result.residual < 0.25
    assert len(central_via_spectrum(Params(1, 2)).rungs) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_every_certifying_rung_is_exact(k):
    # The certificate against the truth.  n runs across the 2^53 crossover
    # of (2k+1)^n, and the grid holds zero numerators (gcd(2k+1, N) > 1,
    # e.g. (k, n) = (1, 4), (2, 6)) and numerator folds with
    # (2k+1)r mod 2N >= N.  Every rung is forced at least once per case
    # through the policy; a rung the ladder already went through when
    # started lower is not forced again.
    certified_at = set()
    for n in range(1, 61):
        p = Params(k, n)
        row = expand_power(p).coeffs
        d = p.degree
        for l in sorted({0, d // 4 + 1, (3 * d) // 4, d - 1, k * n}):
            tried = set()
            for strategy in spectral.STRATEGIES:
                if strategy in tried:
                    continue
                policy = PrecisionPolicy(strategy=strategy)
                if l == k * n:
                    result = central_via_spectrum(p, policy)
                else:
                    result = coefficient_via_spectrum(p, l, policy)
                tried.update(rung for rung, _, _ in result.rungs)
                certified_at.add(result.policy_used.strategy)
                assert result.value == row[l], (k, n, l, result.rungs)
    assert certified_at == set(spectral.STRATEGIES)


def test_double_rungs_skipped_where_they_cannot_certify(monkeypatch):
    # 3^800 alone puts both double bounds past the cap: the ladder records
    # the two rungs as tried, with residual inf, and never evaluates them.
    calls = []
    evaluate = spectral._evaluate_double
    monkeypatch.setattr(
        spectral, "_evaluate_double", lambda *args: calls.append(args) or evaluate(*args)
    )
    p = Params(1, 800)
    result = central_via_spectrum(p)
    assert calls == []
    assert result.rungs[:2] == (("double", 53, math.inf), ("compensated", 53, math.inf))
    assert result.rungs[2][:2] == ("arbitrary", required_bits(p))
    assert result.escalations == 2
    assert result.value == central_coefficient(p)


@pytest.mark.parametrize("k", range(1, 6))
def test_ball_rung_encloses_the_exact_value(k):
    # The residual of the ball rung is a proof: the exact coefficient lies
    # within it at every budget, starved ones included, and the default
    # budget certifies.  The grid holds zero numerators, e.g. (1, 4) and
    # (2, 6), and the central sum (phase None).
    for n in range(1, 61):
        p = Params(k, n)
        row = expand_power(p).coeffs
        d, budget = p.degree, required_bits(p)
        for l in sorted({0, d // 4 + 1, (3 * d) // 4, d - 1, k * n}):
            phase = None if l == k * n else (l - k * n) % p.dim
            for bits in (8, 16, 32, budget - 20, budget):
                value, residual = spectral._evaluate_arbitrary(p, phase, bits)
                assert abs(row[l] - value) <= residual, (k, n, l, bits, residual)
            assert residual < spectral.DEFAULT_RESIDUAL_CAP, (k, n, l)


def _corners(x, rx):
    return (x - rx, x + rx) + ((0,) if abs(x) <= rx else ())


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 80),
    x=st.integers(-(2**90), 2**90),
    rx=st.integers(0, 2**40),
    y=st.integers(1, 2**90),
    ry=st.integers(0, 2**40),
    n=st.integers(1, 12),
)
def test_ball_operations_enclose_every_corner(bits, x, rx, y, ry, n):
    # Exact rationals at the extreme points of the operand balls: products
    # and quotients are monotone in each operand, so corners (and 0 for a
    # power) bound the deviation from the midpoint.
    scale = 2**bits
    mid, rad = spectral._ball_mul(x, rx, y, ry, bits)
    for a in (x - rx, x + rx):
        for b in (y - ry, y + ry):
            assert abs(Fraction(a * b, scale) - mid) <= rad
    mid, rad = spectral._ball_pow(x, rx, n, bits)
    for a in _corners(x, rx):
        assert abs(Fraction(a**n, scale ** (n - 1)) - mid) <= rad
    if y > ry:
        mid, rad = spectral._ball_div(x, rx, y, ry, bits)
        for a in (x - rx, x + rx):
            for b in (y - ry, y + ry):
                assert abs(Fraction(a * scale, b) - mid) <= rad


@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 150), bits=st.integers(1, 200))
def test_rotation_table_encloses_the_sines(half, bits):
    # |S_j - 2^bits sin(j pi/N)| <= j delta wherever floor(N/2) delta <= 2^bits,
    # against mpmath.iv at 64 more bits.
    dim = 2 * half + 1
    table, delta = spectral._rotation_table(dim, bits)
    assert len(table) == half + 1 and table[0] == 0
    if half * delta > 2**bits:
        return
    prec = mpmath.iv.prec
    try:
        mpmath.iv.prec = bits + 64
        for j, mid in enumerate(table):
            exact = mpmath.iv.ldexp(mpmath.iv.sin(mpmath.iv.pi * j / dim), bits)
            assert mid - j * delta <= exact.a and exact.b <= mid + j * delta, (j, mid)
    finally:
        mpmath.iv.prec = prec


def test_starved_ball_budget_raises_and_restores_iv_precision():
    prec = mpmath.iv.prec
    for bits in range(1, 9):
        policy = PrecisionPolicy(strategy="arbitrary", mantissa_bits=bits)
        with pytest.raises(CertificationError) as info:
            central_via_spectrum(Params(10, 100), policy)
        assert info.value.rungs[0][:2] == ("arbitrary", bits)
        assert info.value.residual >= policy.residual_cap
        assert mpmath.iv.prec == prec


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 60),
    where=st.floats(0, 1),
    strategy=st.sampled_from(("double", "compensated")),
)
@example(k=1, n=33, where=0.5, strategy="double")
@example(k=1, n=34, where=0.5, strategy="compensated")
@example(k=1, n=4, where=0.5, strategy="double")
@example(k=2, n=6, where=0.25, strategy="compensated")
def test_cheap_rungs_agree_with_the_ball_rung(k, n, where, strategy):
    # Whenever a double rung's heuristic bound certifies, the proof does too,
    # on the same value, and the ladder does not skip that rung.  3^33 and
    # 3^34 sit either side of 2^53; (1, 4) and (2, 6) have zero numerators.
    p = Params(k, n)
    l = round(where * p.degree)
    phase = None if l == k * n else (l - k * n) % p.dim
    value, residual = spectral._evaluate_double(p, phase, strategy == "compensated")
    if residual >= spectral.DEFAULT_RESIDUAL_CAP:
        return
    proven, radius = spectral._evaluate_arbitrary(p, phase, required_bits(p))
    assert radius < spectral.DEFAULT_RESIDUAL_CAP
    assert value == proven, (k, n, l, strategy)
    result = spectral._certify(p, phase, PrecisionPolicy(strategy=strategy))
    assert result.policy_used.strategy == strategy


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(strategy="quad")
    with pytest.raises(ValueError):
        PrecisionPolicy(strategy="compensated-double")
    with pytest.raises(ValueError):
        PrecisionPolicy(mantissa_bits=0)
    with pytest.raises(ValueError):
        PrecisionPolicy(residual_cap=0.0)
    with pytest.raises(ValueError):
        PrecisionPolicy(residual_cap=0.5)


def test_certified_residual_nonnegative():
    result = central_via_spectrum(Params(2, 5))
    assert result.residual >= 0.0
