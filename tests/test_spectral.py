"""Spectral sums, the sine-ratio spectrum, and the precision certificate."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnomial import (
    CertificationError,
    Params,
    PrecisionPolicy,
    central_coefficient,
    central_via_spectrum,
    coefficient_via_spectrum,
    expand_power,
)
from cnomial import spectral
from cnomial.spectral import dirichlet_kernel, required_bits

PHI = (1 + math.sqrt(5)) / 2


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def ratios(k, n):
    """E_r, r = 1..floor(N/2), as the route evaluates them from the half-table."""
    p = Params(k, n)
    return list(spectral._ratios(p.width, spectral._sine_table(p.dim)))


def test_golden_ratio_spectrum():
    # sin(3pi/5)/sin(pi/5) is the golden ratio, sin(6pi/5)/sin(2pi/5) = -1/phi;
    # they pair with r = 4 and r = 3 of the full spectrum
    values = ratios(1, 2)
    assert len(values) == 2
    assert close(values[0], PHI) and close(values[1], -1 / PHI)


def test_first_eigenvalue_is_width_exactly():
    # E_0 = 2k+1 is never divided: the leading term is its power, exactly
    for k in range(1, 5):
        for n in (1, 2, 7):
            p = Params(k, n)
            terms = spectral._terms_central(k, n, spectral._sine_table(p.dim))
            assert terms[0] == float((2 * k + 1) ** n)


def test_vanishing_spectrum_at_n_one():
    # N = 2k+1: every numerator sin((2k+1) r pi/N) folds onto s_0 = 0
    for k in range(1, 5):
        assert ratios(k, 1) == [0.0] * k


def test_degeneracy_all_methods():
    # each ratio stands for the pair E_r = E_{N-r}: the Dirichlet kernel
    # gives it at both angles 2 pi r/N and 2 pi (N - r)/N
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            values = ratios(k, n)
            assert len(values) == p.dim // 2
            for r, value in enumerate(values, 1):
                for angle in (r, p.dim - r):
                    theta = 2.0 * math.pi * angle / p.dim
                    assert close(value, dirichlet_kernel(k, theta)), (k, n, r, angle)


def test_methods_and_dirichlet_agree():
    # the folded ratios against two unfolded forms of the same spectrum: the
    # Dirichlet kernel and the cosine sum 1 + 2 sum_{l=1..k} cos(2 pi r l/N)
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            for r, value in enumerate(ratios(k, n), 1):
                kernel = dirichlet_kernel(k, 2.0 * math.pi * r / p.dim)
                cosine = 1.0 + 2.0 * sum(
                    math.cos(2.0 * math.pi * r * l / p.dim) for l in range(1, k + 1)
                )
                assert close(value, kernel), (k, n, r)
                assert close(value, cosine), (k, n, r)


def test_spectrum_sums_to_dim():
    # sum of eigenvalues = trace of the central circulant = N * 1, with the
    # pairs doubled: (2k+1) + 2 sum_r E_r = N
    for k in range(1, 4):
        for n in range(1, 8):
            p = Params(k, n)
            total = math.fsum([float(p.width)] + [2.0 * v for v in ratios(k, n)])
            assert abs(total - p.dim) < 1e-9 * p.dim


def test_spectrum_magnitude_bounded():
    for k in range(1, 4):
        for n in range(1, 8):
            assert all(abs(v) <= 2 * k + 1 + 1e-9 for v in ratios(k, n))


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
    assert info.value.residual >= spectral.DEFAULT_RESIDUAL_CAP
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


@pytest.mark.parametrize("k, n, l", [
    (1, 735, 735), (1, 735, 301),
    (3, 232, 696), (3, 232, 1000),
    (10, 92, 920), (10, 92, 77),
])
def test_ball_rung_certifies_in_the_central_large_regime(k, n, l):
    # At the sizes the per-term widths were sized for, the rung alone
    # certifies the exact row's value at its budget F.
    p = Params(k, n)
    policy = PrecisionPolicy(strategy="arbitrary")
    if l == k * n:
        result = central_via_spectrum(p, policy)
    else:
        result = coefficient_via_spectrum(p, l, policy)
    bits = required_bits(p)
    assert result.value == expand_power(p).coeffs[l]
    assert result.policy_used.mantissa_bits == bits
    assert result.rungs == (("arbitrary", bits, result.residual),)
    assert result.residual < spectral.DEFAULT_RESIDUAL_CAP


@pytest.mark.parametrize("k, n, phase", [(1, 735, None), (3, 40, 7), (10, 92, None), (2, 6, 3)])
def test_term_widths_stay_within_the_budget(monkeypatch, k, n, phase):
    # Every term's power runs at a width of at most F, one term per
    # r = 1..floor(N/2); at n > 1 the terms with |E_r| < 1 run narrower.
    widths = []
    power = spectral._ball_pow

    def recording(x, rx, n, bits):
        widths.append(bits)
        return power(x, rx, n, bits)

    monkeypatch.setattr(spectral, "_ball_pow", recording)
    p = Params(k, n)
    bits = required_bits(p)
    spectral._evaluate_arbitrary(p, phase, bits)
    assert len(widths) == p.dim // 2
    assert max(widths) <= bits
    assert min(widths) < bits


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


@settings(max_examples=200, deadline=None)
@given(x=st.integers(-(2**90), 2**90), rx=st.integers(0, 2**40), shift=st.integers(0, 80))
def test_ball_down_encloses_both_ends(x, rx, shift):
    # The table and each phase weight's sine go down to a coarser scale
    # this way: the floor of the midpoint and the rounding of the radius
    # both count.
    mid, rad = spectral._ball_down(x, rx, shift)
    for a in (x - rx, x + rx):
        assert abs(Fraction(a, 2**shift) - mid) <= rad


@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 1000), bits=st.integers(1, 400))
def test_rotation_table_encloses_the_sines(half, bits):
    # |S_j - 2^bits sin(j pi/N)| <= R_j for every entry, at every budget,
    # against mpmath.iv at 64 more bits: the table, and the recurrence
    # behind it without the table's guard bits, where its radius is tight.
    dim = 2 * half + 1
    tables = [spectral._rotation_table(dim, bits), spectral._chebyshev_sines(dim, bits)]
    for table in tables:
        assert len(table) == half + 1 and table[0][0] == 0
    prec = mpmath.iv.prec
    try:
        mpmath.iv.prec = bits + 64
        for j in range(half + 1):
            exact = mpmath.iv.ldexp(mpmath.iv.sin(mpmath.iv.pi * j / dim), bits)
            for table in tables:
                mid, rad = table[j]
                assert mid - rad <= exact.a and exact.b <= mid + rad, (j, mid, rad)
    finally:
        mpmath.iv.prec = prec


def test_starved_ball_budget_raises_and_restores_iv_precision():
    prec = mpmath.iv.prec
    for bits in range(1, 9):
        policy = PrecisionPolicy(strategy="arbitrary", mantissa_bits=bits)
        with pytest.raises(CertificationError) as info:
            central_via_spectrum(Params(10, 100), policy)
        assert info.value.rungs[0][:2] == ("arbitrary", bits)
        assert info.value.residual >= spectral.DEFAULT_RESIDUAL_CAP
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


def test_certified_residual_nonnegative():
    result = central_via_spectrum(Params(2, 5))
    assert result.residual >= 0.0
