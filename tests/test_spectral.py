"""Spectral sums, the sine-ratio spectrum, and the precision certificate."""
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnomial import (
    CertificationError,
    Params,
    coefficient,
    coefficient_via_spectrum,
    expand_power,
)
from cnomial import spectral
from cnomial.spectral import dimension, required_bits
from dirichlet import dirichlet_kernel

PHI = (1 + math.sqrt(5)) / 2


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def route_dim(p, offset):
    """The N the ladder sums at: the smallest for the centre, 2kn+1 for any other l."""
    return p.dim if offset else dimension(p, 0)


def ladder(p, offset):
    """The route's certified p_{kn+offset}, the centre for ``offset=None``."""
    if offset is None:
        return coefficient_via_spectrum(p, p.k * p.n)
    return coefficient_via_spectrum(p, p.k * p.n + offset)


def arbitrary(p, dim, phase, bits):
    """The ball rung at N = ``dim`` and F = ``bits``: the sum at ``phase``, or the central sum for None."""
    if phase is not None:
        return spectral._evaluate_arbitrary(p, dim, phase, bits)
    row = next(spectral._row_spectrum(p.k, p.n, p.n, spectral._rotation_table(dim, bits), bits))
    return spectral._central_ball(p, row, dim, bits)


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
            terms, _ = spectral._double_spectrum(p, p.dim)
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
    # (9 + phi^2 + phi^-2 + phi^-2 + phi^2) / 5 = 3 since phi^2 + phi^-2 = 3:
    # the paper's N = 5.  The route sums at N = 3, where (9 + 0 + 0) / 3 = 3.
    assert abs((9 + 2 * (PHI**2 + PHI**-2)) / 5 - 3) < 1e-12
    p = Params(1, 2)
    value, residual = spectral._double_rung(p, p.dim, None)
    assert value == 3 and residual < 1e-9
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert result.value == 3
    assert result.residual < 1e-9
    assert result.policy_used.strategy == "double"
    assert result.escalations == 0
    assert result.dim == 3


def test_central_identity_case():
    assert coefficient_via_spectrum(Params(1, 1), 1).value == 1


def test_central_zero_power():
    assert coefficient_via_spectrum(Params(3, 0), 0).value == 1


def test_central_heptanomial_matches_oracle():
    p = Params(3, 4)
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert result.value == coefficient(p, p.k * p.n) == 231


def test_central_matches_oracle_on_grid():
    for k in range(1, 4):
        for n in range(1, 16):
            p = Params(k, n)
            assert coefficient_via_spectrum(p, p.k * p.n).value == coefficient(p, p.k * p.n), (k, n)


def test_coefficient_examples():
    assert coefficient_via_spectrum(Params(1, 2), 1).value == 2
    assert (
        coefficient_via_spectrum(Params(1, 2), 2).value
        == coefficient_via_spectrum(Params(1, 2), 2).value
    )
    assert coefficient_via_spectrum(Params(2, 3), 0).value == 1


def test_coefficient_full_rows():
    for k in range(1, 4):
        for n in range(1, 7):
            p = Params(k, n)
            row = expand_power(p)
            for l in range(p.degree + 1):
                assert coefficient_via_spectrum(p, l).value == row[l], (k, n, l)


def test_coefficient_range_error():
    with pytest.raises(ValueError):
        coefficient_via_spectrum(Params(1, 2), 5)


def test_parseval_row_energy():
    # sum of squared coefficients of P^n is the central coefficient of P^{2n}
    for k in range(1, 4):
        for n in range(1, 7):
            row = expand_power(Params(k, n))
            assert sum(c * c for c in row) == coefficient(Params(k, 2 * n), 2 * k * n)


def test_double_certifies_within_its_budget():
    # wherever the bit budget fits a double mantissa, no escalation happens
    cases = 0
    for k in range(1, 7):
        for n in range(1, 13):
            p = Params(k, n)
            if required_bits(p) > 52:
                continue
            result = coefficient_via_spectrum(p, p.k * p.n)
            assert result.policy_used.strategy == "double"
            assert result.escalations == 0
            assert result.residual < 0.25
            cases += 1
    assert cases > 10


def test_escalation_to_arbitrary():
    # 3^60 dwarfs 2^53: the double pass cannot certify and must escalate
    p = Params(1, 60)
    assert required_bits(p) > 52
    _, residual = spectral._double_rung(p, dimension(p, 0), None)
    assert residual >= 0.25
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert result.escalations >= 1
    assert result.policy_used.strategy == "arbitrary"
    assert result.policy_used.mantissa_bits == required_bits(p)
    assert result.value == coefficient(p, p.k * p.n)


def test_escalation_count_is_one_from_double():
    assert coefficient_via_spectrum(Params(1, 60), 60).escalations == 1


def test_overflowing_double_sum_escalates_and_recovers():
    # 3^800 overflows a double entirely; the saturated (inf) pass must fall
    # through the ladder and still land on the exact value.
    p = Params(1, 800)
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert result.policy_used.strategy == "arbitrary"
    assert result.escalations == 1
    assert result.value == coefficient(p, p.k * p.n)


def test_arbitrary_start_uses_computed_budget():
    # The ball rung alone, at the budget the ladder gives it, on a sum the
    # double rung certifies.
    p = Params(1, 2)
    value, residual = arbitrary(p, dimension(p, 0), None, required_bits(p))
    assert value == 3
    assert residual < spectral.DEFAULT_RESIDUAL_CAP


def test_starved_budget_fails_certification(monkeypatch):
    monkeypatch.setattr(spectral, "required_bits", lambda params: 8)
    with pytest.raises(CertificationError) as info:
        coefficient_via_spectrum(Params(1, 60), 60)
    assert info.value.residual >= spectral.DEFAULT_RESIDUAL_CAP
    assert info.value.rungs == (("double", 53, math.inf), ("arbitrary", 8, info.value.residual))


def test_rungs_record_every_rung_tried():
    p = Params(1, 60)
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert [strategy for strategy, _, _ in result.rungs] == ["double", "arbitrary"]
    assert [bits for _, bits, _ in result.rungs] == [53, required_bits(p)]
    assert all(residual >= 0.25 for _, _, residual in result.rungs[:-1])
    assert result.rungs[-1][2] == result.residual < 0.25
    assert len(coefficient_via_spectrum(Params(1, 2), 2).rungs) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_every_certifying_rung_is_exact(k):
    # The certificate against the truth.  n runs across the 2^53 crossover
    # of (2k+1)^n, and the grid holds zero numerators (gcd(2k+1, N) > 1,
    # e.g. (k, n) = (1, 4), (2, 6)) and numerator folds with
    # (2k+1)r mod 2N >= N.  Both rungs are evaluated directly on every
    # case at the smallest N, and the ladder's own answer is checked too.
    certified_at = set()
    for n in range(1, 61):
        p = Params(k, n)
        row = expand_power(p)
        d = p.degree
        for l in sorted({0, d // 4 + 1, (3 * d) // 4, d - 1, k * n}):
            offset = None if l == k * n else l - k * n
            dim = dimension(p, offset or 0)
            phase = None if offset is None else offset % dim
            for strategy, (value, residual) in (
                ("double", spectral._double_rung(p, dim, phase)),
                ("arbitrary", arbitrary(p, dim, phase, required_bits(p))),
            ):
                if residual < spectral.DEFAULT_RESIDUAL_CAP:
                    certified_at.add(strategy)
                    assert value == row[l], (k, n, l, strategy)
            if l == k * n:
                result = coefficient_via_spectrum(p, p.k * p.n)
            else:
                result = coefficient_via_spectrum(p, l)
            assert result.value == row[l], (k, n, l, result.rungs)
    assert certified_at == {"double", "arbitrary"}


def test_double_rungs_skipped_where_they_cannot_certify(monkeypatch):
    # 3^800 alone puts the double bound past the cap: the ladder records
    # the rung as tried, with residual inf, and never evaluates it.
    calls = []
    spectrum = spectral._double_spectrum
    monkeypatch.setattr(
        spectral, "_double_spectrum", lambda *args: calls.append(args) or spectrum(*args)
    )
    p = Params(1, 800)
    result = coefficient_via_spectrum(p, p.k * p.n)
    assert calls == []
    assert result.rungs[0] == ("double", 53, math.inf)
    assert result.rungs[1][:2] == ("arbitrary", required_bits(p))
    assert result.escalations == 1
    assert result.value == coefficient(p, p.k * p.n)


#: k -> the largest n the double rung's floor admits, at the centre's
#: smallest N and at the paper's 2kn+1.
GATE_EDGES = {1: (30, 30), 2: (20, 21), 3: (17, 17), 4: (15, 15), 5: (14, 14),
              6: (13, 13), 7: (12, 13), 8: (12, 12), 9: (11, 12), 10: (11, 11)}


@pytest.mark.parametrize("k", range(1, 11))
def test_the_gate_admits_finite_double_sums_only(monkeypatch, k):
    # At the largest n the floor admits, the rung forms its powers, and
    # every power and the mass are finite; at the next n it returns (0,
    # inf) without forming any.  Both N: the centre's, and the paper's
    # with a phase.
    calls = []
    spectrum = spectral._double_spectrum
    monkeypatch.setattr(
        spectral, "_double_spectrum", lambda *args: calls.append(args) or spectrum(*args)
    )
    for last, paper in zip(GATE_EDGES[k], (False, True)):
        for n in (last, last + 1):
            p = Params(k, n)
            dim, phase = (p.dim, 1) if paper else (dimension(p, 0), None)
            del calls[:]
            value, residual = spectral._double_rung(p, dim, phase)
            if n == last:
                assert calls == [(p, dim)], (k, n, dim)
                powers, mass = spectrum(p, dim)
                assert all(map(math.isfinite, powers)) and math.isfinite(mass), (k, n, dim)
                assert math.isfinite(residual), (k, n, dim)
            else:
                assert calls == [] and (value, residual) == (0, math.inf), (k, n, dim)


@pytest.mark.parametrize("k", range(1, 6))
def test_ball_rung_encloses_the_exact_value(k):
    # The residual of the ball rung is a proof: the exact coefficient lies
    # within it at every budget, starved ones included, and the default
    # budget certifies.  The grid holds zero numerators, e.g. (1, 4) and
    # (2, 6), and the central sum (phase None).
    for n in range(1, 61):
        p = Params(k, n)
        row = expand_power(p)
        d, budget = p.degree, required_bits(p)
        for l in sorted({0, d // 4 + 1, (3 * d) // 4, d - 1, k * n}):
            phase = None if l == k * n else (l - k * n) % p.dim
            for bits in (8, 16, 32, budget - 20, budget):
                value, residual = arbitrary(p, p.dim, phase, bits)
                assert abs(row[l] - value) <= residual, (k, n, l, bits, residual)
            assert residual < spectral.DEFAULT_RESIDUAL_CAP, (k, n, l)


@pytest.mark.parametrize("k, n, l", [
    (1, 735, 735), (1, 735, 301),
    (3, 232, 696), (3, 232, 1000),
    (10, 92, 920), (10, 92, 77),
])
def test_ball_rung_certifies_in_the_central_large_regime(k, n, l):
    # At the sizes the per-term widths were sized for, the rung alone
    # certifies the exact row's value at its budget F, at the smallest N
    # and at the route's, and the ladder reaches it at the route's.
    p = Params(k, n)
    offset = None if l == k * n else l - k * n
    bits = required_bits(p)
    for dim in (dimension(p, offset or 0), route_dim(p, offset)):
        phase = None if offset is None else offset % dim
        value, residual = arbitrary(p, dim, phase, bits)
        assert value == expand_power(p)[l]
        assert residual < spectral.DEFAULT_RESIDUAL_CAP
    # The loop ends at the route's N, so ``residual`` is the rung's there.
    result = ladder(p, offset)
    assert result.dim == route_dim(p, offset)
    assert result.policy_used == spectral.PrecisionPolicy("arbitrary", bits)
    assert result.rungs == (("double", 53, math.inf), ("arbitrary", bits, residual))


@pytest.mark.parametrize("k, n, offset", [(1, 735, None), (3, 40, 7), (10, 92, None), (2, 6, 3)])
def test_term_widths_stay_within_the_budget(monkeypatch, k, n, offset):
    # Every term's power runs at a width of at most F, and each r =
    # 1..floor(N/2) at the route's N is either powered or below one ulp;
    # at n > 1 the terms with |E_r| < 1 run narrower.  Each midpoint is
    # the binary powering chain that the closed-form radius covers.
    widths, skipped = [], []
    radius, below = spectral._power_radius, spectral._below_ulp

    def recording(x, rx, y, n, bits):
        assert y == binary_power(x, n, bits)
        widths.append(bits)
        return radius(x, rx, y, n, bits)

    def counting(*args):
        skip = below(*args)
        skipped.append(skip)
        return skip

    monkeypatch.setattr(spectral, "_power_radius", recording)
    monkeypatch.setattr(spectral, "_below_ulp", counting)
    p = Params(k, n)
    bits = required_bits(p)
    dim = route_dim(p, offset)
    phase = None if offset is None else offset % dim
    arbitrary(p, dim, phase, bits)
    assert len(widths) + sum(skipped) == len(skipped) == dim // 2
    assert max(widths) <= bits
    assert min(widths) < bits


def test_dimension_is_the_smallest_odd_above_kn_plus_the_offset():
    p = Params(1, 60)
    assert dimension(p, 0) == 61  # the centre: kn + 1, odd
    assert dimension(p, -60) == dimension(p, 60) == 121 == p.dim  # l = 0, 2kn
    assert dimension(Params(1, 3), 0) == 5  # kn + 1 = 4 is even
    assert dimension(Params(2, 5), -3) == 15
    assert dimension(Params(4, 0), 0) == 1
    for k in range(1, 4):
        for n in range(0, 9):
            p = Params(k, n)
            for offset in range(-k * n, k * n + 1):
                dim = dimension(p, offset)
                assert dim % 2 == 1 and k * n + abs(offset) < dim <= k * n + abs(offset) + 2
                assert dim <= p.dim


def test_certified_results_report_the_dimension():
    p = Params(1, 60)
    assert coefficient_via_spectrum(p, p.k * p.n).dim == 61
    assert coefficient_via_spectrum(p, 0).dim == 121
    assert coefficient_via_spectrum(p, 45).dim == 121
    assert coefficient_via_spectrum(Params(3, 0), 0).dim == 1


@pytest.mark.parametrize("k", range(1, 5))
def test_every_rung_is_exact_at_the_smallest_dimension(k):
    # Each rung evaluated directly at the smallest N: a double rung that
    # certifies, and the ball rung always, give the exact row's value.
    # The ladder runs at the route's N.
    for n in range(1, 41):
        p = Params(k, n)
        row = expand_power(p)
        d = p.degree
        for l in sorted({0, 1, d // 4, k * n, (3 * d) // 4, d}):
            offset = None if l == k * n else l - k * n
            dim = dimension(p, offset or 0)
            phase = None if offset is None else offset % dim
            value, residual = spectral._double_rung(p, dim, phase)
            if residual < spectral.DEFAULT_RESIDUAL_CAP:
                assert value == row[l], (k, n, l)
            value, residual = arbitrary(p, dim, phase, required_bits(p))
            assert value == row[l] and residual < spectral.DEFAULT_RESIDUAL_CAP, (k, n, l)
            result = ladder(p, offset)
            assert (result.value, result.dim) == (row[l], route_dim(p, offset)), (k, n, l)


@pytest.mark.parametrize("k", range(1, 4))
def test_one_odd_dimension_less_aliases_a_second_coefficient(k):
    # The bound N > kn + |l - kn| is tight: at the next odd N below it the
    # sum holds p_{kn+t} for every t = l - kn (mod N) with |t| <= kn, which
    # includes l +- N, and every entry of the row is positive.
    for n in range(1, 13):
        p = Params(k, n)
        row = expand_power(p)
        for l in range(p.degree + 1):
            offset = l - k * n
            dim = dimension(p, offset) - 2
            phase = None if offset == 0 else offset % dim
            aliased = [t for t in range(-k * n, k * n + 1) if (t - offset) % dim == 0]
            assert len(aliased) >= 2, (k, n, l, dim)
            value, residual = arbitrary(p, dim, phase, required_bits(p))
            assert residual < spectral.DEFAULT_RESIDUAL_CAP, (k, n, l, dim)
            assert value == sum(row[k * n + t] for t in aliased) > row[l], (k, n, l, dim)


def read(p, l):
    """p_l by the spectral route as the CLI asks for it."""
    if l == p.k * p.n:
        return coefficient_via_spectrum(p, p.k * p.n)
    return coefficient_via_spectrum(p, l)


@pytest.mark.parametrize("k", range(1, 5))
def test_results_do_not_depend_on_the_cache_state(cold_caches, k):
    # Every coefficient read from cold caches is the same result, field by
    # field (value, residual, rung, dim, rungs), as the same coefficient
    # read warm: after the rest of its row in shuffled order, and again
    # once the whole row is cached.  Every l off the centre is summed at
    # 2kn+1, the centre at the smallest N.
    rng = random.Random(k)
    for n in range(1, 31):
        p = Params(k, n)
        row = expand_power(p)
        ls = list(range(p.degree + 1))
        cold = {}
        for l in ls:
            cold_caches()
            cold[l] = read(p, l)
        rng.shuffle(ls)
        cold_caches()
        warm = {l: read(p, l) for l in ls}
        again = {l: read(p, l) for l in reversed(ls)}
        assert cold == warm == again, (k, n)
        for l, result in cold.items():
            assert result.value == row[l], (k, n, l)
            assert result.dim == (dimension(p, 0) if l == k * n else p.dim), (k, n, l)


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 120),
    n=st.integers(1, 400),
    b=st.integers(0, 121),
    rq=st.integers(0, 2**20),
    negative=st.booleans(),
)
@example(width=5, n=2, b=3, rq=1, negative=False)  # (width - b) n == width - 1
@example(width=6, n=2, b=3, rq=1, negative=True)  # (width - b) n == width
@example(width=2, n=2, b=0, rq=1, negative=False)  # q = 0: a zero numerator
def test_terms_below_one_ulp_are_below_one_ulp(width, n, b, rq, negative):
    # The shortcut that leaves a term out of the spectrum as the ball
    # (0, 1) holds on the exact rational: every point of the ball (q, rq)
    # at scale 2^width has an n-th power below 2^-width.  |q| + rq is
    # 2^b - 1, the widest ball of its bit length, wherever rq allows.
    q = max((1 << b) - 1 - rq, 0)
    q = -q if negative else q
    if spectral._below_ulp(q, rq, n, width):
        assert Fraction(abs(q) + rq, 2**width) ** n < Fraction(1, 2**width)


def spectra(*args):
    """Each form of ``_row_spectrum(*args)``, paired with the radii of its
    powers in term order, as ``_power_radius`` returned them."""
    power_radius, radii, forms = spectral._power_radius, [], []

    def recording(*radius_args):
        radii.append(power_radius(*radius_args))
        return radii[-1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(spectral, "_power_radius", recording)
        for row in spectral._row_spectrum(*args):
            forms.append((row, radii[:]))
            radii.clear()
    return forms


@pytest.mark.parametrize("k, n", [(1, 60), (2, 30), (3, 40), (2, 6)])
def test_row_spectrum_encloses_every_power(k, n):
    # Each powered term, midpoint x at width g = F - cut with the radius rx
    # that the form's spread adds up, holds 2^g E_r^n, and the radius of
    # the terms left out below one ulp holds their doubled magnitudes at
    # scale 2^F, at the paper's N and at the smallest: the exact powers
    # against mpmath.iv at 64 bits more than twice the budget.  Checked
    # for n alone (binary powering) and for every n' of the run 1..n
    # (products by E_r after n' = 1), whose widths are those of n: the
    # last form of the run keeps the terms that n alone keeps, at the
    # same widths, and leaves the same ones out.
    p = Params(k, n)
    bits = required_bits(p)
    skipped = 0
    prec = mpmath.iv.prec
    try:
        mpmath.iv.prec = 2 * bits + 64
        for dim in sorted({p.dim, dimension(p, 0)}):
            ratios = [mpmath.iv.sin(mpmath.iv.pi * (p.width * r) / dim)
                      / mpmath.iv.sin(mpmath.iv.pi * r / dim) for r in range(1, dim // 2 + 1)]
            sines = spectral._rotation_table(dim, bits)
            alone = spectra(k, n, n, sines, bits)
            run = spectra(k, 1, n, sines, bits)
            assert len(alone) == 1 and len(run) == n
            (last, _), (single, _) = run[-1], alone[0]
            assert (last.rs, last.cuts, last.slack) == (single.rs, single.cuts, single.slack)
            for power_n, (row, radii) in [(n, alone[0]), *enumerate(run, 1)]:
                assert len(radii) == len(row.rs)
                assert row.spread == sum(rx << cut for rx, cut in zip(radii, row.cuts))
                powered = {r: (x, rx, bits - cut) for r, x, rx, cut in zip(row.rs, row.xs, radii, row.cuts)}
                left_out = mpmath.iv.mpf(0)
                for r, ratio in enumerate(ratios, 1):
                    power = ratio**power_n
                    if r in powered:
                        x, rx, g = powered[r]
                        exact = mpmath.iv.ldexp(power, g)
                        assert x - rx <= exact.a and exact.b <= x + rx, (dim, power_n, r)
                    else:
                        left_out += abs(power)
                        skipped += 1
                assert mpmath.iv.ldexp(2 * left_out, bits).b <= row.slack, (dim, power_n)
    finally:
        mpmath.iv.prec = prec
    if n > 6:
        assert skipped > 0


@pytest.mark.parametrize("k, first, last, crosses", [
    *[(k, first, last, True)  # the double rung, then the ball rung
      for k, first, last in [(1, 0, 120), (2, 10, 50), (3, 0, 40), (4, 12, 24), (5, 1, 30)]],
    *[(k, first, last, False)  # wholly in the ball regime
      for k, first, last in [(1, 60, 75), (2, 25, 31), (3, 100, 104), (5, 40, 44)]],
])
def test_central_run_equals_the_exact_row(k, first, last, crosses):
    # Every n of a run is the exact coefficient.  The n that escalate all
    # sum at the N and F of the largest of them; the others keep the
    # double rung at their own smallest N.
    results = spectral.central_run(k, first, last)
    ns = range(first, last + 1)
    assert [result.value for result in results] == [coefficient(Params(k, n), k * n) for n in ns]
    escalated = [n for n, result in zip(ns, results) if result.escalations]
    top = Params(k, max(escalated))
    for n, result in zip(ns, results):
        assert result.residual < spectral.DEFAULT_RESIDUAL_CAP
        if n in escalated:
            assert result.dim == dimension(top, 0)
            assert result.policy_used == spectral.PrecisionPolicy("arbitrary", required_bits(top))
        else:
            assert result == coefficient_via_spectrum(Params(k, n), k * n), n
    assert escalated == list(range(escalated[0], last + 1))
    assert (escalated[0] > first) == crosses


@pytest.mark.parametrize("k, n", [(1, 3), (1, 29), (1, 30), (1, 60), (2, 21), (3, 40), (5, 14), (4, 0)])
def test_a_run_of_one_is_the_ladder_alone(k, n):
    # A run of one is the centre, l = kn, field by field, and its rungs
    # are those of the ladder run alone: the double rung at the smallest
    # N, then, where that does not certify, the ball rung on the cached
    # row form at that N and at the budget of n.
    p = Params(k, n)
    (result,) = spectral.central_run(k, n, n)
    assert result == coefficient_via_spectrum(p, p.k * p.n)
    dim = dimension(p, 0)
    value, residual = spectral._double_rung(p, dim, None)
    rungs = [("double", 53, residual)]
    if residual >= spectral.DEFAULT_RESIDUAL_CAP:
        bits = required_bits(p)
        value, residual = arbitrary(p, dim, None, bits)
        rungs.append(("arbitrary", bits, residual))
    assert (result.value, result.residual, result.dim, result.rungs) == (value, residual, dim, tuple(rungs))
    assert result.escalations == len(rungs) - 1


@pytest.mark.parametrize("k", range(1, 6))
def test_the_centre_is_the_central_run(k):
    # coefficient_via_spectrum at l = kn is central_run of n alone, field by
    # field (value, residual, rung, dim, rungs), on both sides of the
    # double-to-ball crossing and at n = 0.
    for n in range(61):
        assert coefficient_via_spectrum(Params(k, n), k * n) == spectral.central_run(k, n, n)[0], (k, n)


def _hex(values):
    return [value.hex() for value in values]


def saturating_pow(base, n):
    """``base ** n``, saturated to +-inf where the float power overflows."""
    try:
        return base**n
    except OverflowError:
        return -math.inf if (base < 0.0 and n % 2) else math.inf


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), half=st.integers(1, 200), n=st.integers(0, 280))
@example(k=1, half=1, n=1)  # N = 3 = 2k+1: every numerator folds onto s_0
def test_double_rung_passes_match_per_entry_loops(k, half, n):
    # The ratios, the powers and their mass, and the sum at every phase,
    # against a per-entry loop that forms each entry as the route
    # defines it, bit for bit (signed zeros included).  n <= 280 keeps
    # 11^n and every 2 |E_r|^n finite, gate or no gate.  Both sides add
    # the same floats in the same order with sum().
    dim, m = 2 * half + 1, 2 * k + 1
    sines = spectral._sine_table(dim)
    ratios = []
    for r in range(1, half + 1):
        t = m * r % (2 * dim)
        sign, t = (1, t) if t < dim else (-1, t - dim)
        ratios.append(sign * sines[min(t, dim - t)] / sines[r])
    assert _hex(spectral._ratios(m, sines)) == _hex(ratios)
    p = Params(k, n)
    powers = [saturating_pow(float(m), n)] + [2.0 * saturating_pow(ratio, n) for ratio in ratios]
    terms, mass = spectral._double_spectrum(p, dim)
    assert _hex(terms) == _hex(powers)
    assert mass.hex() == sum([abs(power) for power in powers], 0.0).hex()
    assert spectral._double_sum(terms, dim, None).hex() == sum(powers, 0.0).hex()
    weights = spectral._phase_weights(dim)
    for phase in range(dim):
        weighted = []
        for r in range(1, len(powers)):
            weighted.append(powers[r] * weights[r * phase % dim])
        assert spectral._double_sum(terms, dim, phase).hex() == sum(weighted, powers[0]).hex(), phase


def _corners(x, rx):
    return (x - rx, x + rx) + ((0,) if abs(x) <= rx else ())


def binary_power(x, n, bits):
    """The midpoint of x^n at scale 2^bits by binary powering, one floor per step."""
    y = x
    for bit in bin(n)[3:]:
        y = (y * y) >> bits
        if bit == "1":
            y = (y * x) >> bits
    return y


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
    # Exact rationals at the extreme points of the operand balls: quotients
    # are monotone in each operand and powers in |t|, so corners (and 0 for
    # a power) bound the deviation from the midpoint.  Radii this wide
    # mostly take the power's always-valid fallback radius.
    scale = 2**bits
    mid = binary_power(x, n, bits)
    rad = spectral._power_radius(x, rx, mid, n, bits)
    for a in _corners(x, rx):
        assert abs(Fraction(a**n, scale ** (n - 1)) - mid) <= rad
    if y > ry:
        mid, rad = spectral._ball_div(x, rx, y, ry, bits)
        for a in (x - rx, x + rx):
            for b in (y - ry, y + ry):
                assert abs(Fraction(a * scale, b) - mid) <= rad


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(60, 300),
    where=st.fractions(-3, 3),
    rx=st.integers(0, 2**8),
    n=st.integers(1, 400),
)
@example(bits=60, where=Fraction(1), rx=0, n=400)  # X = 1 exactly: no floor cuts
@example(bits=60, where=Fraction(-1), rx=256, n=399)  # a^n at the edge of |x| >= 2^bits
@example(bits=64, where=Fraction(2**64 - 1, 2**64), rx=256, n=400)  # just below it
@example(bits=60, where=Fraction(0), rx=256, n=2)  # even power of a ball around 0
def test_power_radius_in_closed_form_encloses_every_corner(bits, where, rx, n):
    # The closed-form power radius, where it applies (n (rx + 4) <= 2^bits):
    # exact n-th powers of the ball's corners, and of 0 inside it, lie
    # within the radius of the midpoint, which is the one binary powering
    # of the midpoint alone gives.  The radius stays within 2 n (rx + 2)
    # a^n + 2, a = max(1, (|x| + rx) 2^-bits): it is not the fallback.
    scale = 2**bits
    x = math.floor(where * scale)
    assert n * (rx + 4) <= scale
    mid = binary_power(x, n, bits)
    rad = spectral._power_radius(x, rx, mid, n, bits)
    for a in _corners(x, rx):
        assert abs(Fraction(a**n, scale ** (n - 1)) - mid) <= rad
    a = max(Fraction(1), Fraction(abs(x) + rx, scale))
    assert rad <= 2 * n * (rx + 2) * a**n + 2


@settings(max_examples=30, deadline=None)
@given(half=st.integers(0, 300), bits=st.integers(1, 300))
def test_cosine_table_encloses_the_cosines(half, bits):
    # Every midpoint, the mirrored upper half included, is within the
    # table's one radius of 2^bits cos(2 i pi/N), i = 0..N-1, against
    # mpmath.iv at 64 more bits.
    dim = 2 * half + 1
    cosines, rad = spectral._cosine_table(spectral._rotation_table(dim, bits), bits)
    assert len(cosines) == dim and cosines[0] == 1 << bits
    prec = mpmath.iv.prec
    try:
        mpmath.iv.prec = bits + 64
        for i, mid in enumerate(cosines):
            exact = mpmath.iv.ldexp(mpmath.iv.cos(2 * mpmath.iv.pi * i / dim), bits)
            assert mid - rad <= exact.a and exact.b <= mid + rad, (i, mid, rad)
    finally:
        mpmath.iv.prec = prec


@pytest.mark.parametrize("cut", [0, 12])
def test_weighting_radius_encloses_the_phase_sums(monkeypatch, cut):
    # The row-constant radius of a phase's sum of products, alone: a row
    # whose powers are exact integers x_r at 2^g (radius 0, nothing left
    # out), g = F - cut, so the cosine radius alone (cut = 0), or with the
    # cut ulps (cut = 12), carries the whole error.  The terms are about 2^60, so an
    # error that the radius misses moves the sum by far more than the
    # rounding's half unit, and every phase's exact sum, over N, must lie
    # within the residual of the returned integer.
    p, bits = Params(2, 5), 40
    dim, width = p.dim, bits - cut
    rng = random.Random(cut)
    terms = tuple((r, rng.randrange(-(2 ** (width + 60)), 2 ** (width + 60)), 0, width)
                  for r in range(1, dim // 2 + 1))
    rs, xs, _, _ = zip(*terms)
    row = spectral._RowForm(rs, xs, (cut,) * len(rs), 0, 0)
    monkeypatch.setattr(spectral, "_row_spectrum", lambda *args: iter([row]))
    prec = mpmath.iv.prec
    try:
        mpmath.iv.prec = 2 * bits + 128
        for phase in range(dim):
            value, residual = spectral._evaluate_arbitrary(p, dim, phase, bits)
            exact = p.width**p.n + 2 * sum(
                mpmath.iv.ldexp(mpmath.iv.cos(2 * mpmath.iv.pi * r * phase / dim) * x, -g)
                for r, x, _, g in terms
            )
            assert abs(exact / dim - value).b <= residual, (cut, phase)
    finally:
        mpmath.iv.prec = prec


@pytest.mark.parametrize("k, n", [(1, 60), (3, 40)])
def test_slack_holds_the_terms_left_out(monkeypatch, k, n):
    # A row spectrum that leaves out every other powered term and charges
    # each to the slack as _row_spectrum charges a term below one ulp, by
    # its doubled magnitude at scale 2^F: every sum of the row, each phase
    # and the centre, must still enclose the exact coefficient.  The
    # spread keeps the radii of the terms left out, so with the doubled
    # midpoints in the slack every radius is the one a fake charging
    # 2 (|x| + rx) 2^cut per term left out would give.  The terms left
    # out are far above one ulp, so a radius that drops the slack misses
    # them.  At the centre, with n even, every term left out is positive
    # and the bound is tight, and the residual is the smallest double at
    # or above it.
    p = Params(k, n)
    bits = required_bits(p)
    row_spectrum = spectral._row_spectrum

    def thinned(*args):
        for row in row_spectrum(*args):
            left_out = sum(2 * abs(x) << cut for x, cut in zip(row.xs[1::2], row.cuts[1::2]))
            yield row._replace(rs=row.rs[::2], xs=row.xs[::2], cuts=row.cuts[::2],
                               slack=row.slack + left_out)

    monkeypatch.setattr(spectral, "_row_spectrum", thinned)
    row = expand_power(p)
    for l in range(p.degree + 1):
        phase = None if l == k * n else (l - k * n) % p.dim
        value, residual = arbitrary(p, p.dim, phase, bits)
        assert abs(row[l] - value) <= residual, (k, n, l)


@settings(max_examples=200, deadline=None)
@given(total=st.integers(-(2**300), 2**300), radius=st.integers(0, 2**200),
       scale=st.integers(1, 2**250))
def test_rounded_residual_is_the_least_double_above_the_bound(total, radius, scale):
    value, residual = spectral._rounded(total, radius, scale)
    assert abs(Fraction(total, scale) - value) <= Fraction(1, 2)
    bound = Fraction(abs(total - value * scale) + radius, scale)
    assert Fraction(residual) >= bound
    assert residual == 0.0 or Fraction(math.nextafter(residual, 0.0)) < bound


@settings(max_examples=200, deadline=None)
@given(x=st.integers(-(2**90), 2**90), rx=st.integers(0, 2**40), shift=st.integers(0, 80))
def test_ball_down_encloses_both_ends(x, rx, shift):
    # The table and each phase weight's cosine go down to a coarser scale
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


SEED_DIMS = (3, 5, 7, 61, 1601, 16001)
SEED_BITS = (30, 64, 200, 1000, 3000, 7200)


def iv_encloses(ball, exact):
    mid, rad = ball
    return mid - rad <= exact.a and exact.b <= mid + rad


def test_integer_pi_encloses_pi(monkeypatch):
    # Machin's series at each precision, and the same precisions shifted
    # down from pi at the widest one, against mpmath.iv at 64 more bits.
    prec = mpmath.iv.prec
    try:
        for widest in (None, max(SEED_BITS)):
            monkeypatch.setattr(spectral, "_PI", (0, 3, 1))
            if widest is not None:
                spectral._pi(widest)
            for bits in SEED_BITS:
                ball = spectral._pi(bits)
                mpmath.iv.prec = bits + 64
                assert iv_encloses(ball, mpmath.iv.ldexp(mpmath.iv.pi, bits)), (widest, bits)
                assert ball[1] <= 4 * bits + 64, (widest, bits, ball[1])
    finally:
        mpmath.iv.prec = prec


@pytest.mark.parametrize("dim", SEED_DIMS)
def test_integer_seed_encloses_cos_and_sin(dim):
    # The balls around (cos, sin)(pi/N) that start the Chebyshev table,
    # against mpmath.iv at 64 more bits; each is a floor and a ceiling of
    # the value, so its radius is one ulp.
    prec = mpmath.iv.prec
    try:
        for bits in SEED_BITS:
            cos_ball, sin_ball = spectral._seed(dim, bits)
            mpmath.iv.prec = bits + 64
            angle = mpmath.iv.pi / dim
            assert iv_encloses(cos_ball, mpmath.iv.ldexp(mpmath.iv.cos(angle), bits)), bits
            assert iv_encloses(sin_ball, mpmath.iv.ldexp(mpmath.iv.sin(angle), bits)), bits
            assert cos_ball[1] == sin_ball[1] == 1, (bits, cos_ball[1], sin_ball[1])
    finally:
        mpmath.iv.prec = prec


def test_one_dimension_needs_no_seed(monkeypatch):
    # N = 1 (n = 0) has the one entry s_0 = 0.
    monkeypatch.setattr(spectral, "_seed", None)
    assert spectral._chebyshev_sines(1, 64) == [(0, 0)]
    assert coefficient_via_spectrum(Params(3, 0), 0).value == 1


def test_starved_ball_budget_raises_and_restores_iv_precision(monkeypatch):
    prec = mpmath.iv.prec
    for bits in range(1, 9):
        monkeypatch.setattr(spectral, "required_bits", lambda params: bits)
        with pytest.raises(CertificationError) as info:
            coefficient_via_spectrum(Params(10, 100), 1000)
        assert info.value.rungs[-1][:2] == ("arbitrary", bits)
        assert info.value.residual >= spectral.DEFAULT_RESIDUAL_CAP
        assert mpmath.iv.prec == prec


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(1, 60), where=st.floats(0, 1))
@example(k=1, n=33, where=0.5)
@example(k=1, n=34, where=0.5)
@example(k=1, n=4, where=0.5)
@example(k=2, n=6, where=0.25)
def test_cheap_rungs_agree_with_the_ball_rung(k, n, where):
    # Whenever the double rung's heuristic bound certifies, the proof does
    # too, on the same value, at the paper's N and at the smallest; at the
    # route's N, one of the two, the ladder does not skip that rung.  3^33
    # and 3^34 sit either side of 2^53; (1, 4) and (2, 6) have zero
    # numerators.
    p = Params(k, n)
    l = round(where * p.degree)
    offset = None if l == k * n else l - k * n
    for dim in (p.dim, dimension(p, offset or 0)):
        phase = None if offset is None else offset % dim
        value, residual = spectral._double_rung(p, dim, phase)
        if residual >= spectral.DEFAULT_RESIDUAL_CAP:
            continue
        proven, radius = arbitrary(p, dim, phase, required_bits(p))
        assert radius < spectral.DEFAULT_RESIDUAL_CAP
        assert value == proven, (k, n, l, dim)
        if dim == route_dim(p, offset):
            result = ladder(p, offset)
            assert result.policy_used.strategy == "double"
            assert result.dim == dim


def test_double_rung_bound_holds_the_true_error():
    # The double rung's forward bound, residual - measured, against the
    # true error |quotient - p_l| of the quotient the rung rounds, taken
    # exactly in Fractions: k 1-6, n 1-69, seven l per row, at the paper's
    # N and at the smallest.  Every finite bound holds, certified or not.
    checked = 0
    for k in range(1, 7):
        for n in range(1, 70):
            p = Params(k, n)
            row = expand_power(p)
            for l in sorted({round(j * p.degree / 6) for j in range(7)}):
                offset = None if l == k * n else l - k * n
                for dim in (p.dim, dimension(p, offset or 0)):
                    phase = None if offset is None else offset % dim
                    value, residual = spectral._double_rung(p, dim, phase)
                    if not math.isfinite(residual):
                        continue
                    powers, _ = spectral._double_spectrum(p, dim)
                    quotient = Fraction(spectral._double_sum(powers, dim, phase) / dim)
                    bound = Fraction(residual) - abs(quotient - value)
                    error = abs(quotient - row[l])
                    assert error <= bound, (k, n, l, dim)
                    checked += 1
    assert checked > 1000


def test_double_rung_phase_charge_holds_the_worst_weights(monkeypatch):
    # The weighted terms' charge, against inputs as far off as the bound's
    # own accounting allows, all in the direction that adds up: each power
    # 2 E_r^n within (9.7n + 2)u of its exact value, relative, and each
    # weight within 20.4u of its cosine, both moved toward the sign that
    # grows the weighted term.  The true error, in Fractions against the
    # exact p_l, must stay within the bound.  At n = 1 and 2 the powers'
    # 10n charge is too small to absorb these weights' errors, so a phase
    # sum charged 2u per term, as the centre is, fails here (k = 1, n = 1
    # at N = 7, 11, 13) whether sum() adds left to right or compensates.
    # Prime N > 2kn gives every r its own phase index and holds p_l alone.
    u = 2.0**-53
    checked = 0
    with mpmath.workprec(200):
        for k in range(1, 4):
            for n in (1, 2):
                p = Params(k, n)
                row = expand_power(p)
                for dim in (7, 11, 13, 17, 19, 23):
                    if dim <= p.degree:
                        continue
                    ratios = [mpmath.sin(mpmath.pi * p.width * r / dim) / mpmath.sin(mpmath.pi * r / dim)
                              for r in range(1, dim // 2 + 1)]
                    cosines = [mpmath.cos(2 * mpmath.pi * i / dim) for i in range(dim)]
                    for l in range(p.degree + 1):
                        if l == k * n:
                            continue
                        phase = (l - k * n) % dim
                        powers, weights = [float(p.width) ** n], [float(c) for c in cosines]
                        for r, ratio in enumerate(ratios, 1):
                            term, i = 2 * ratio**n, r * phase % dim
                            grow = 1 if term * cosines[i] >= 0 else -1
                            powers.append(float(term * (1 + (9.7 * n + 1.5) * u * grow)))
                            weights[i] = float(cosines[i] + 19.9 * u * (1 if term >= 0 else -1))
                        spectrum = tuple(powers), sum(map(abs, powers), 0.0)
                        monkeypatch.setattr(spectral, "_double_spectrum", lambda params, dim: spectrum)
                        monkeypatch.setattr(spectral, "_phase_weights", lambda dim: tuple(weights))
                        value, residual = spectral._double_rung(p, dim, phase)
                        quotient = Fraction(spectral._double_sum(spectrum[0], dim, phase) / dim)
                        bound = Fraction(residual) - abs(quotient - value)
                        assert abs(quotient - row[l]) <= bound, (k, n, dim, l)
                        checked += 1
    assert checked > 150


def plain_double_rung(p, dim, phase):
    """The double rung by plain loops, each sum left to right from 0.0: the
    reference the route's whole-row passes must match bit for bit.  The
    same floor gates it: where that reaches the cap, nothing is summed."""
    floor = saturating_pow(float(p.width), p.n) * (10 * p.n + 2) * 2.0**-53 / dim
    if floor >= spectral.DEFAULT_RESIDUAL_CAP:
        return 0, math.inf
    sines = [0.0] + [math.sin((math.pi * j) / dim) for j in range(1, dim // 2 + 1)]
    terms = [float(p.width) ** p.n]
    for r in range(1, dim // 2 + 1):
        t = p.width * r % (2 * dim)
        sign, t = (1, t) if t < dim else (-1, t - dim)
        terms.append(2.0 * (sign * sines[min(t, dim - t)] / sines[r]) ** p.n)
    mass = 0.0
    for term in terms:
        mass = mass + abs(term)
    if phase is not None:
        for r in range(1, len(terms)):
            j = r * phase % dim
            s = sines[min(j, dim - j)]
            terms[r] = terms[r] * (1 - 2 * s * s)
    total = 0.0
    for term in terms:
        total = total + term
    quotient = total / dim
    value = round(quotient)
    per_term = 10.0 * p.n + (2.0 if phase is None else 24.0)
    bound = mass * (per_term + len(terms) + 1) * 2.0**-53 / dim + math.ulp(abs(quotient))
    return value, abs(quotient - value) + bound


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() of floats is compensated from 3.12 on")
def test_double_rung_matches_plain_loops():
    # The value and residual of the double rung against plain loops, bit
    # for bit: k 1-4, n 1-30, seven l per row, at the paper's N and at the
    # smallest, so both the central sum and every phase weight are read.
    for k in range(1, 5):
        for n in range(1, 31):
            p = Params(k, n)
            for l in sorted({round(j * p.degree / 6) for j in range(7)}):
                offset = None if l == k * n else l - k * n
                for dim in (p.dim, dimension(p, offset or 0)):
                    phase = None if offset is None else offset % dim
                    expected = plain_double_rung(p, dim, phase)
                    assert spectral._double_rung(p, dim, phase) == expected, (k, n, l, dim)


def test_certified_residual_nonnegative():
    result = coefficient_via_spectrum(Params(2, 5), 10)
    assert result.residual >= 0.0
