"""Trigonometric spectral route to (2k+1)-nomial coefficients.

The symmetric circulant diagonalizes in the discrete Fourier basis, so its
trace power collapses to a finite sum of sine-ratio powers:

    M = (1/N) * [ (2k+1)^n + sum_{l=1}^{2kn} (sin((2k+1)l pi/N) / sin(l pi/N))^n ]

with N = 2kn+1.  General coefficients pick up a cosine phase.  Every rung
evaluates the sum from one half-table of sines, s_j = sin(j pi/N) for
j <= N/2: numerators fold onto it, E_r = E_{N-r} pairs the terms, and the
phase cosine is 1 - 2 s_j^2.  The sums are rounded back to integers, so
every result carries a certificate: the pre-rounding distance from the
nearest integer plus a bound on the evaluation error, required to stay
under a cap.  The bound matters: once terms outgrow the mantissa the
measured distance alone is blind (above 2^53 every double is an integer).
The double and compensated rungs use a forward error bound; when neither
can certify, the arbitrary rung evaluates the sum in fixed-point ball
arithmetic, whose radius encloses every rounding, each term at the width
its size needs.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from math import inf, pi, sin

from mpmath import libmp

from .params import Params

STRATEGIES = ("double", "compensated", "arbitrary")

#: Guard bits on top of the magnitude estimate in :func:`required_bits`.
GUARD_BITS = 32

#: A sum certifies when its residual is below this cap: half of the
#: unambiguous-rounding margin; the other half is headroom against
#: correlated rounding error.  Escalating is cheap, mis-rounding is not.
DEFAULT_RESIDUAL_CAP = 0.25

#: Unit roundoff of IEEE binary64, and its mantissa bits.
_EPS = 2.0**-53
_DOUBLE_BITS = 53


@dataclass(frozen=True)
class PrecisionPolicy:
    """How to evaluate the spectral sum.

    ``strategy`` is the starting point of the escalation ladder.  For the
    ``arbitrary`` strategy, ``mantissa_bits`` is the number of fractional
    bits of its fixed-point balls; ``None`` means "compute the budget
    from the operands" via :func:`required_bits`; an explicit value is
    honored as-is (including values too small to certify, which then raise
    :class:`CertificationError`).
    """

    strategy: str = "double"
    mantissa_bits: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.mantissa_bits is not None and self.mantissa_bits < 1:
            raise ValueError(f"mantissa_bits must be positive, got {self.mantissa_bits}")


@dataclass(frozen=True)
class CertifiedInteger:
    """An integer recovered from a floating sum, plus its rounding evidence.

    ``residual`` is the pre-rounding distance of the sum (after division by
    N) from the returned integer, widened by a bound on the error of the
    evaluation itself (a forward bound on the double rungs, the ball radius
    on the arbitrary rung); certification means it stayed below
    :data:`DEFAULT_RESIDUAL_CAP`.  ``policy_used`` reflects the strategy
    that finally certified, ``escalations`` how many ladder steps that
    took.  ``rungs`` holds every rung tried, in order, as (strategy,
    mantissa bits, residual); the last one is the rung that certified.
    """

    value: int
    residual: float
    policy_used: PrecisionPolicy
    escalations: int = 0
    rungs: tuple[tuple[str, int, float], ...] = ()


class CertificationError(ArithmeticError):
    """No strategy on the ladder brought the residual under the cap.

    ``rungs`` holds every rung tried, as on :class:`CertifiedInteger`.
    """

    def __init__(
        self,
        message: str,
        residual: float,
        policy: PrecisionPolicy,
        rungs: tuple[tuple[str, int, float], ...] = (),
    ):
        super().__init__(message)
        self.residual = residual
        self.policy = policy
        self.rungs = rungs


def required_bits(params: Params) -> int:
    """Mantissa budget that certifies the spectral sum for these params.

    ceil(n*log2(2k+1)) bounds the term magnitudes, ceil(log2 N) the term
    count, plus fixed guard bits.  The ceilings are computed exactly via
    bit lengths rather than floating logs.
    """
    magnitude = pow(params.width, params.n) - 1
    return magnitude.bit_length() + (params.dim - 1).bit_length() + GUARD_BITS


def dirichlet_kernel(k: int, theta: float) -> float:
    """D_k(theta) = sin((2k+1)theta/2) / sin(theta/2), with D_k(0) = 2k+1.

    Fourier partial-sum kernel; at theta = 2*pi*r/N it reproduces the
    circulant eigenvalue E_r, an unfolded check on the ratios of
    :func:`_ratios`.
    """
    half = math.sin(theta / 2.0)
    if half == 0.0:
        return float(2 * k + 1)
    return math.sin((2 * k + 1) * theta / 2.0) / half


def _round_with_residual(quotient: float) -> tuple[int, float]:
    if not math.isfinite(quotient):
        return 0, math.inf
    nearest = round(quotient)
    return int(nearest), abs(quotient - nearest)


def _pow(base: float, n: int) -> float:
    """``base ** n`` with C ``pow()`` overflow semantics: saturate to ±inf.

    CPython raises OverflowError where libm returns ±HUGE_VAL; saturating
    lets callers treat a non-finite sum as "escalate precision" rather than
    a crash.
    """
    try:
        return base**n
    except OverflowError:
        return -inf if (base < 0.0 and n % 2) else inf


def _sine_table(dim: int) -> list[float]:
    """The half-table s_j = sin(j pi/N), j = 0..floor(N/2), the double rungs' only sines.

    Every argument lies in [0, pi/2], where x cot x <= 1: the relative error
    of s_j is at most that of its argument plus the sine's own rounding.
    s_0 = 0 needs no call, so a table costs floor(N/2) sines.
    """
    return [0.0] + [sin((pi * j) / dim) for j in range(1, dim // 2 + 1)]


def _numerators(m: int, dim: int) -> Iterator[tuple[int, int]]:
    """sin(m r pi/N) = sign * s_j for r = 1..floor(N/2), as (sign, j) with j <= N/2.

    The angle is reduced exactly: with t = m r mod 2N, sin(t pi/N) is
    -sin((t-N) pi/N) when t >= N, and sin(j pi/N) = sin((N-j) pi/N) folds j
    into the half-table.  t = 0 or N (possible when gcd(m, N) > 1) reads
    s_0: a zero numerator.
    """
    for r in range(1, dim // 2 + 1):
        t = (m * r) % (2 * dim)
        if t < dim:
            yield 1, min(t, dim - t)
        else:
            t -= dim
            yield -1, min(t, dim - t)


def _ratios(m: int, sines: list[float]) -> Iterator[float]:
    """E_r = sin(m r pi/N) / sin(r pi/N) for r = 1..floor(N/2), from the half-table.

    The numerator folds onto the table exactly (:func:`_numerators`), so
    only the division rounds.
    """
    dim = 2 * len(sines) - 1
    for r, (sign, j) in enumerate(_numerators(m, dim), 1):
        yield sign * sines[j] / sines[r]


def _phase_indices(phase: int, dim: int) -> Iterator[int]:
    """j with cos(2 pi r phase/N) = 1 - 2 s_j^2, for r = 1..floor(N/2).

    j = (r * phase) mod N folded to min(j, N - j) <= floor(N/2): the phase
    is reduced exactly before any rounding, and no cosine is needed.
    """
    for r in range(1, dim // 2 + 1):
        j = (r * phase) % dim
        yield min(j, dim - j)


def _phase_terms(powers: list[float], phase: int | None, sines: list[float]) -> list[float]:
    """The terms of the sum at a phase offset: powers[r] * cos(2 pi r phase/N).

    The cosine is 1 - 2 s_j^2 (:func:`_phase_indices`).  ``phase=None`` is
    the central sum, whose terms are the powers themselves.
    """
    if phase is None:
        return powers
    out = powers[:1]
    for power, j in zip(powers[1:], _phase_indices(phase, 2 * len(sines) - 1)):
        s = sines[j]
        out.append(power * (1 - 2 * s * s))
    return out


def _terms_central(k: int, n: int, sines: list[float]) -> list[float]:
    """Terms of the paired central sum (2k+1)^n + 2 * sum_{r=1..floor(N/2)} E_r^n.

    E_r = E_{N-r} for the 0-based Fourier index r (both the numerator and
    the denominator are symmetric about N/2 when 2k+1 is odd), so each pair
    of the full sum over r = 1..N-1 is one doubled term.  The power term
    comes first, then r ascending, so every summation strategy sees the
    same deterministic order; the doubling is exact.
    """
    m = 2 * k + 1
    return [_pow(float(m), n)] + [2.0 * _pow(ratio, n) for ratio in _ratios(m, sines)]


def _sum_plain(terms: list[float]) -> float:
    """Left-to-right double accumulation."""
    s = 0.0
    for term in terms:
        s = s + term
    return s


def _sum_abs(terms: list[float]) -> float:
    """Left-to-right accumulation of absolute values (for error bounds)."""
    s = 0.0
    for term in terms:
        s = s + abs(term)
    return s


def _sum_compensated(terms: list[float]) -> float:
    """Left-to-right Neumaier-compensated accumulation.

    Tracks the rounding error of every addition in a second double and
    re-adds it once at the end, shrinking the error bound from O(m*eps)
    toward O(eps).
    """
    s = 0.0
    c = 0.0
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
    return s + c


def _evaluate_double(params: Params, phase: int | None, compensated: bool) -> tuple[int, float]:
    n_dim = params.dim
    sines = _sine_table(n_dim)
    powers = _terms_central(params.k, params.n, sines)
    terms = _phase_terms(powers, phase, sines)
    total = _sum_compensated(terms) if compensated else _sum_plain(terms)
    quotient = total / n_dim
    value, measured = _round_with_residual(quotient)
    mass = _sum_abs(powers)
    if not math.isfinite(quotient) or not math.isfinite(mass):
        return value, math.inf
    # Forward error bound on the quotient in units of u = 2^-53, charged
    # against the cosine-free mass A = sum |(2k+1)^n| + 2 |E_r|^n, which also
    # bounds the weighted terms (|w_r| <= 1):
    # - s_j = sin(fl(fl(j * pi) / N)): pi carries 0.35u, the product and the
    #   quotient u each; x cot x <= 1 on [0, pi/2] passes those 2.35u on to
    #   s_j at most unchanged, and libm's sine adds one ulp (2u): 4.35u.
    # - E_r: two entries and one division, 9.7u; the fold and the sign are
    #   exact.  E_r^n multiplies that by n and pow adds an ulp, and the
    #   doubling is exact: (9.7n + 2)u per term, rounded up to 10n + 2 to
    #   cover second-order terms.
    # - w_r = 1 - 2 s_j^2: s_j^2 is within 9.7u relative and below 1, so
    #   2 s_j^2 is within 19.4u absolute and the subtraction adds u.  This
    #   error is absolute: where w_r ~ 0 it is no fraction of E_r^n w_r.
    #   With the product's rounding, a weighted term is within
    #   (10n + 2 + 21.4)u of |E_r^n|: 22 more units per term.
    # - Summation: plain left-to-right accumulation of len(terms) terms
    #   costs at most one u of A per addition; Neumaier's costs u|S| plus
    #   second-order terms, 4 in all.
    # - Division by N and the quantization of the quotient itself cost one
    #   ulp of the quotient, which is what keeps the certificate honest
    #   above 2^53.
    per_term = 10.0 * params.n + (2.0 if phase is None else 24.0)
    accumulation = 4.0 if compensated else float(len(terms) + 1)
    bound = mass * (per_term + accumulation) * _EPS / n_dim
    bound += math.ulp(abs(quotient))
    return value, measured + bound


def _floor_ldexp(man: int, exp: int) -> int:
    """floor(man * 2^exp), exactly."""
    return man << exp if exp >= 0 else man >> -exp


def _ball(x: tuple[tuple, tuple], bits: int) -> tuple[int, int]:
    """An integer ball (mid, rad) around 2^bits times every point of the libmp interval x."""
    (lo, lo_exp), (hi, hi_exp) = (libmp.to_man_exp(end) for end in x)
    lo, hi = _floor_ldexp(lo, lo_exp + bits), -_floor_ldexp(-hi, hi_exp + bits)
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _rotation_table(dim: int, bits: int) -> list[tuple[int, int]]:
    """Balls (S_j, R_j) around 2^bits sin(j pi/N), j = 0..floor(N/2).

    :func:`_chebyshev_sines` builds them e = 2 bitlen(floor(N/2)) + 2 bits
    wider, which holds its quadratic error growth to a few ulps here.
    """
    extra = 2 * (dim // 2).bit_length() + 2
    return [_ball_down(x, rx, extra) for x, rx in _chebyshev_sines(dim, bits + extra)]


def _chebyshev_sines(dim: int, bits: int) -> list[tuple[int, int]]:
    """Balls (S_j, R_j) around 2^bits sin(j pi/N), j = 0..floor(N/2), one product each.

    The sines of the rotation z^j = exp(i j pi/N) obey the Chebyshev
    recurrence s_{j+1} = 2c s_j - s_{j-1}, c = cos(pi/N).  One libmp
    enclosure of (c, s_1), at 20 guard bits, gives balls (C, rho_c) and
    (S_1, rho_s).  Write eps_j = S_j - 2^bits s_j, so eps_0 = 0 and
    |eps_1| <= rho_s.  A step S_{j+1} = floor(2 C S_j / 2^bits) - S_{j-1},
    with C = 2^bits c + gamma and |gamma| <= rho_c, gives

        eps_{j+1} = 2c eps_j - eps_{j-1} + d_j,   d_j = 2 gamma S_j / 2^bits - f_j,

    f_j in [0, 1) being the floor's cut, so |d_j| <= d = ceil(2 rho_c
    max|S| / 2^bits) + 1 over the computed entries.  The recurrence is
    linear, and a kick at step i reaches entry j as U_{j-1-i}(c), the
    Chebyshev polynomial of the second kind, with |U_m| <= m + 1 on
    [-1, 1]; eps_1 reaches it as U_{j-1}(c).  Hence

        |eps_j| <= R_j = j rho_s + sum_{i=1}^{j-1} (j - i) d = j rho_s + j(j-1)/2 d,

    at any budget.
    """
    half, prec = dim // 2, bits + 20
    pi = (libmp.mpf_pi(prec, libmp.round_floor), libmp.mpf_pi(prec, libmp.round_ceiling))
    angle = libmp.mpi_div(pi, (libmp.from_int(dim),) * 2, prec)
    (c, rc), (s, rs) = (_ball(x, bits) for x in libmp.mpi_cos_sin(angle, prec))
    table, twice = [0, s][: half + 1], 2 * c
    for _ in range(half - 1):
        table.append(((twice * table[-1]) >> bits) - table[-2])
    d = -(-2 * rc * max(map(abs, table)) >> bits) + 1
    return [(x, j * rs + j * (j - 1) // 2 * d) for j, x in enumerate(table)]


def _ball_mul(x: int, rx: int, y: int, ry: int, bits: int) -> tuple[int, int]:
    """The product of the balls (x, rx) and (y, ry) at scale 2^bits.

    Points within the radii multiply to within |x| ry + |y| rx + rx ry of
    x y; the floor shift of the midpoint and the rounding up of the radius
    cost an ulp each.
    """
    return (x * y) >> bits, ((abs(x) * ry + abs(y) * rx + rx * ry) >> bits) + 2


def _ball_down(x: int, rx: int, shift: int) -> tuple[int, int]:
    """The ball (x, rx) at a scale 2^shift times coarser.

    The midpoint's floor shift costs under an ulp; the radius rounds up.
    """
    return x >> shift, -(-rx >> shift) + 1


def _ball_div(x: int, rx: int, y: int, ry: int, bits: int) -> tuple[int, int]:
    """The quotient of the balls (x, rx) / (y, ry) at scale 2^bits, for y > ry.

    x and y share any one scale.  2^bits x/y lies within an ulp above the
    midpoint q.  Moving x and y within their radii moves it by at most
    (rx 2^bits + (|q| + 1) ry)/(y - ry), because 2^bits |x|/y <= |q| + 1 and
    the divisor stays above y - ry.
    """
    q = (x << bits) // y
    return q, -((-(rx << bits) - (abs(q) + 1) * ry) // (y - ry)) + 1


def _ball_pow(x: int, rx: int, n: int, bits: int) -> tuple[int, int]:
    """The n-th power, n >= 1, of the ball (x, rx) by left-to-right binary powering.

    A square is a :func:`_ball_mul` with |y| ry counted once, doubled:
    one large product fewer.
    """
    y, ry = x, rx
    for bit in bin(n)[3:]:
        y, ry = (y * y) >> bits, (((2 * abs(y)) * ry + ry * ry) >> bits) + 2
        if bit == "1":
            y, ry = _ball_mul(y, ry, x, rx, bits)
    return y, ry


def _evaluate_arbitrary(params: Params, phase: int | None, bits: int) -> tuple[int, float]:
    """The spectral sum in fixed-point ball arithmetic at scale 2^bits.

    Every quantity is an integer midpoint x and an integer radius rx with
    |2^g * value - x| <= rx at its scale 2^g, and every rounding is charged
    to the radius, so the residual encloses the distance of the exact sum
    from the returned integer: no error estimate is involved.

    The terms differ enormously in size, so each runs at its own width g_r:
    an error of 2^-g_r in E_r grows to about n |E_r|^(n-1) 2^-g_r in E_r^n,
    and N such terms are summed, so g_r = bitlen(n) + bitlen(N) + GUARD_BITS
    + ceil((n - 1) log2 |E_r|) where |E_r| > 1, capped at ``bits``.  log2 |E_r|
    is read off the table's midpoints.  The quotient comes out at scale
    2^g_r from the table's balls, the power and the phase weight run there,
    and the result is shifted back up, exactly, before it is added.  A
    width only decides whether the sum certifies, never whether the
    residual encloses it.
    """
    n, dim = params.n, params.dim
    sines = _rotation_table(dim, bits)
    phases = None if phase is None else _phase_indices(phase, dim)
    least = n.bit_length() + dim.bit_length() + GUARD_BITS
    total, radius = params.width**n << bits, 0
    for r, (sign, j) in enumerate(_numerators(params.width, dim), 1):
        s, rs = sines[r]
        if s <= rs:
            return 0, math.inf
        t, rt = sines[j]
        width = least
        if t > s:
            width += math.ceil((n - 1) * (math.log2(t) - math.log2(s)))
        width = min(width, bits)
        shift = bits - width
        q, rq = _ball_div(t, rt, s, rs, width)
        x, rx = _ball_pow(sign * q, rq, n, width)
        if phases is not None:
            i = next(phases)
            si, ri = _ball_down(*sines[i], shift)
            w, rw = _ball_mul(si, ri, si, ri, width)
            x, rx = _ball_mul(x, rx, (1 << width) - 2 * w, 2 * rw, width)
        total += x << (shift + 1)
        radius += rx << (shift + 1)
    scale = dim << bits
    value = (2 * total + scale) // (2 * scale)
    try:
        residual = (abs(total - value * scale) + radius) / scale
    except OverflowError:
        residual = math.inf
    return value, residual


def _certify(params: Params, phase: int | None, policy: PrecisionPolicy) -> CertifiedInteger:
    ladder = STRATEGIES[STRATEGIES.index(policy.strategy):]
    # Both double rungs' bounds are at least this: their mass holds
    # (2k+1)^n and every term is charged (10n + 2)u (see _evaluate_double).
    # Where it reaches the cap, a double rung is recorded as tried, with
    # residual inf, but not evaluated.
    double_floor = _pow(float(params.width), params.n) * (10 * params.n + 2) * _EPS / params.dim
    value, residual = 0, math.inf
    rungs = []
    for escalations, strategy in enumerate(ladder):
        if strategy == "arbitrary":
            bits = policy.mantissa_bits or required_bits(params)
            value, residual = _evaluate_arbitrary(params, phase, bits)
            effective = replace(policy, strategy="arbitrary", mantissa_bits=bits)
        else:
            bits = _DOUBLE_BITS
            if double_floor < DEFAULT_RESIDUAL_CAP:
                value, residual = _evaluate_double(params, phase, strategy == "compensated")
            else:
                value, residual = 0, math.inf
            effective = replace(policy, strategy=strategy)
        rungs.append((strategy, bits, residual))
        if residual < DEFAULT_RESIDUAL_CAP:
            return CertifiedInteger(
                value=value,
                residual=residual,
                policy_used=effective,
                escalations=escalations,
                rungs=tuple(rungs),
            )
    where = "central sum" if phase is None else f"coefficient sum at phase offset {phase}"
    raise CertificationError(
        f"residual {residual} >= cap {DEFAULT_RESIDUAL_CAP} for the {where} "
        f"(k={params.k}, n={params.n}) even at strategy {ladder[-1]!r}",
        residual=residual,
        policy=policy,
        rungs=tuple(rungs),
    )


def central_via_spectrum(
    params: Params, policy: PrecisionPolicy = PrecisionPolicy()
) -> CertifiedInteger:
    """M^(2k,n) from the closed-form sine-ratio sum, certified."""
    return _certify(params, None, policy)


def coefficient_via_spectrum(
    params: Params, l: int, policy: PrecisionPolicy = PrecisionPolicy()
) -> CertifiedInteger:
    """Coefficient ``p_l`` from the phase-weighted spectral sum, certified.

    Uses the real cosine form: the eigenvalue pairing E_r = E_{N-r} (the
    0-based Fourier index r, as in the rest of the module) cancels the
    imaginary parts of the conjugate Fourier phases, leaving cosine
    weights.  The phase index is taken relative to the central column,
    ``(l - kn) mod N``: the n-th power of the central circulant stores
    ``p_l`` that many columns right of its diagonal, and phase 0 (l = kn)
    reduces to the central sum.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    phase = (l - params.k * params.n) % params.dim
    return _certify(params, phase, policy)
