"""Trigonometric spectral route to (2k+1)-nomial coefficients.

The symmetric circulant diagonalizes in the discrete Fourier basis, so its
trace power collapses to a finite sum of sine-ratio powers:

    M = (1/N) * [ (2k+1)^n + sum_{r=1}^{N-1} (sin((2k+1)r pi/N) / sin(r pi/N))^n ]

The paper takes N = 2kn+1.  At any odd N the sum, with the phase of an
offset d = l - kn, gives the sum of p_{kn+t} over t = d (mod N), and every
term but p_l drops out once N > kn + |d| (:func:`dimension`, the tight
bound).  The central sum runs at the smallest such N, about kn.  Any other
coefficient runs at 2kn+1, which holds the whole row: E_r does not depend
on l, so the arbitrary rung powers it once per row (:func:`_row_form`)
and each l only weights those powers by its phase.  The trace route keeps
2kn+1 too.  Every rung evaluates the sum from one half-table of sines,
s_j = sin(j pi/N) for j <= N/2: numerators fold onto it, E_r = E_{N-r}
pairs the terms, and the phase cosine is 1 - 2 s_j^2.  The sums are
rounded back to integers, so every result carries a certificate: the
pre-rounding distance from the nearest integer plus a bound on the
evaluation error, required to stay under a cap.  The bound matters: once
terms outgrow the mantissa the measured distance alone is blind (above
2^53 every double is an integer).  The ladder has two rungs, and the code
chooses: the double rung, with a forward error bound, runs where that
bound can reach the cap; when it does not certify, the arbitrary rung
evaluates the sum in fixed-point ball arithmetic at :func:`required_bits`,
whose radius encloses every rounding, each term at the width its size
needs.  Its sines are seeded in integers alone (Machin's pi and the sine
series), so the module needs only the standard library.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import repeat
from math import inf, pi, sin
from operator import lshift, mul, neg, rshift, truediv
from typing import NamedTuple

from .params import Params

#: Guard bits on top of the magnitude estimate in :func:`required_bits`.
GUARD_BITS = 32

#: A sum certifies when its residual is below this cap: half of the
#: unambiguous-rounding margin; the other half is headroom against
#: correlated rounding error.  Escalating is cheap, mis-rounding is not.
DEFAULT_RESIDUAL_CAP = 0.25

#: Unit roundoff of IEEE binary64, and its mantissa bits.
_EPS = 2.0**-53
_DOUBLE_BITS = 53


class PrecisionPolicy(NamedTuple):
    """The rung that certified a sum: ``double``, or ``arbitrary`` with
    ``mantissa_bits`` fractional bits in its fixed-point balls."""

    strategy: str
    mantissa_bits: int | None = None


class CertifiedInteger(NamedTuple):
    """An integer recovered from a floating sum, plus its rounding evidence.

    ``residual`` is the pre-rounding distance of the sum (after division by
    N) from the returned integer, widened by a bound on the error of the
    evaluation itself (a forward bound on the double rung, the ball radius
    on the arbitrary rung); certification means it stayed below
    :data:`DEFAULT_RESIDUAL_CAP`.  ``policy_used`` records the rung that
    certified, ``escalations`` how many ladder steps that took.  ``rungs``
    holds every rung tried, in order, as (strategy, mantissa bits,
    residual); the last one is the rung that certified.
    ``dim`` is the circulant dimension N the sum ran at: :func:`dimension`
    of 0 for the central sum, the paper's 2kn+1 for any other coefficient.
    """

    value: int
    residual: float
    policy_used: PrecisionPolicy
    dim: int
    escalations: int = 0
    rungs: tuple[tuple[str, int, float], ...] = ()


class CertificationError(ArithmeticError):
    """No rung of the ladder brought the residual under the cap.

    ``rungs`` holds every rung tried, as on :class:`CertifiedInteger`.
    """

    def __init__(
        self, message: str, residual: float, rungs: tuple[tuple[str, int, float], ...] = ()
    ):
        super().__init__(message)
        self.residual = residual
        self.rungs = rungs


def dimension(params: Params, offset: int) -> int:
    """The smallest odd N > kn + |offset|: the circulant that holds p_{kn+offset} alone.

    The n-th power of the N x N central circulant holds, at ``offset``,
    the sum of p_{kn+t} over t = offset (mod N), |t| <= kn; every t but
    ``offset`` itself is then out of range.  l = 0 and l = 2kn get the
    paper's 2kn+1, n = 0 gets 1.
    """
    return (params.k * params.n + abs(offset) + 1) | 1


def required_bits(params: Params) -> int:
    """Mantissa budget that certifies the spectral sum for these params.

    ceil(n*log2(2k+1)) bounds the term magnitudes, ceil(log2 N) the term
    count, plus fixed guard bits.  The ceilings are computed exactly via
    bit lengths rather than floating logs.  N is the paper's 2kn+1, the
    largest :func:`dimension`, so the budget serves every coefficient.
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
    """The half-table s_j = sin(j pi/N), j = 0..floor(N/2), the double rung's only sines.

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


def _ratios(m: int, sines: list[float]) -> list[float]:
    """E_r = sin(m r pi/N) / sin(r pi/N) for r = 1..floor(N/2), from the half-table.

    The numerator's angle is reduced exactly, t = m r mod 2N, and read off
    the half-table extended to sin(t pi/N) for t = 0..2N-1: mirrored,
    sin(t pi/N) = s_{N-t}, and negated, sin(t pi/N) = -sin((t-N) pi/N), as
    :func:`_numerators` folds it.  So only the division rounds, and the
    passes run in ``map``, not per entry in Python.
    """
    dim = 2 * len(sines) - 1
    row = sines + sines[:0:-1]
    signed = row + list(map(neg, row))
    angles = map((2 * dim).__rmod__, range(m, m * (dim // 2) + 1, m))  # m r mod 2N
    return list(map(truediv, map(signed.__getitem__, angles), sines[1:]))


@lru_cache(maxsize=8)
def _double_spectrum(params: Params, dim: int) -> tuple[tuple[float, ...], float]:
    """The paired terms of the central sum and their mass A, in doubles.

    The terms are (2k+1)^n, then 2 E_r^n for r = 1..floor(N/2): E_r =
    E_{N-r} for the 0-based Fourier index r (numerator and denominator are
    both symmetric about N/2 when 2k+1 is odd), so each pair of the full
    sum over r = 1..N-1 is one doubled term, and the doubling is exact.
    A = sum |term|.  Neither depends on the phase, so every coefficient of
    a row reads the same ones; cached per (k, n, N).
    """
    n = params.n
    ratios = _ratios(params.width, _sine_table(dim))
    powers = tuple([_pow(float(params.width), n)] + [2.0 * _pow(ratio, n) for ratio in ratios])
    return powers, sum(map(abs, powers), 0.0)


@lru_cache(maxsize=2)
def _phase_weights(dim: int) -> tuple[float, ...]:
    """w_i = cos(2 pi i/N) = 1 - 2 s_{min(i, N-i)}^2, i = 0..N-1, from the half-table.

    The phase r * d mod N of a term is reduced exactly before it indexes
    the table, so no cosine is needed; cached per N.
    """
    half = [1 - 2 * s * s for s in _sine_table(dim)]
    return tuple(half + half[:0:-1])


def _double_sum(powers: tuple[float, ...], dim: int, phase: int | None) -> float:
    """The paired spectral sum of :func:`_double_spectrum`'s terms at the odd dimension ``dim``.

    ``phase=None`` is the central sum of the terms themselves; a phase d
    weights term r by w_{r d mod N} (:func:`_phase_weights`).  The order
    is fixed: 0.0, the (2k+1)^n term, then r ascending (a phase's sum
    starts at that term, which is 0.0 plus it exactly).  ``sum`` of
    floats adds left to right before Python 3.12 and with compensation
    from 3.12 on; the forward bound of :func:`_evaluate_double` covers
    both.
    """
    if phase is None:
        return sum(powers, 0.0)
    weights = _phase_weights(dim)
    indices = map(dim.__rmod__, map(mul, range(1, len(powers)), repeat(phase)))  # r d mod N
    return sum(map(mul, powers[1:], map(weights.__getitem__, indices)), powers[0])


def _evaluate_double(params: Params, dim: int, phase: int | None) -> tuple[int, float]:
    """The spectral sum at the odd dimension ``dim`` in doubles, with a forward error bound."""
    powers, mass = _double_spectrum(params, dim)
    quotient = _double_sum(powers, dim, phase) / dim
    value, measured = _round_with_residual(quotient)
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
    # - Summation: left-to-right accumulation of len(powers) terms costs at
    #   most one u of A per addition; compensated summation costs less.
    # - Division by N and the quantization of the quotient itself cost one
    #   ulp of the quotient, which is what keeps the certificate honest
    #   above 2^53.
    per_term = 10.0 * params.n + (2.0 if phase is None else 24.0)
    bound = mass * (per_term + len(powers) + 1) * _EPS / dim
    bound += math.ulp(abs(quotient))
    return value, measured + bound


#: (bits, mid, rad): a ball around 2^bits pi at the widest scale asked for so far.
_PI = (0, 3, 1)


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """A ball around 2^bits atan(1/x), for an integer x > 1, by its alternating series.

    Term i is floor(2^bits / (x^(2i+1) (2i+1))): nested floors of positive
    integers compose, so each costs under an ulp however it is reached.
    The series stops at the first term whose power floor(2^bits/x^(2i+1))
    is 0; the tail of an alternating series with falling terms is at most
    that term, which is below one ulp.
    """
    power, total, square, i = (1 << bits) // x, 0, x * x, 0
    while power:
        term = power // (2 * i + 1)
        total += -term if i & 1 else term
        power //= square
        i += 1
    return total, i + 1


def _pi(bits: int) -> tuple[int, int]:
    """A ball around 2^bits pi by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239).

    pi is computed once per process at the widest scale asked for; a
    narrower one is a right shift of it, with the radius rounded up.
    """
    global _PI
    widest, mid, rad = _PI
    if widest < bits:
        (a, ra), (b, rb) = _atan_inv(5, bits), _atan_inv(239, bits)
        widest, mid, rad = _PI = (bits, 16 * a - 4 * b, 16 * ra + 4 * rb)
    return _ball_down(mid, rad, widest - bits)


def _ball_within(x: int, rx: int, shift: int) -> tuple[int, int]:
    """The smallest ball at a scale 2^shift coarser whose integer ends hold the ball (x, rx).

    Where (x, rx) is much narrower than the coarser ulp, as a seed is, the
    radius is one ulp; :func:`_ball_down` would give two.
    """
    lo, hi = (x - rx) >> shift, -(-(x + rx) >> shift)
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _seed(dim: int, bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Balls around 2^bits (cos, sin)(pi/N), odd N >= 3, in integers alone.

    The work runs at p = bits + bitlen(bits) + GUARD_BITS, on a ball
    (X, rho_x) around 2^p x, x = pi/N.  sin x is its alternating series at
    X: term i + 1 is T_i Q / 2^p over (2i+2)(2i+3), Q = floor(X^2 / 2^p),
    floored once.  Q is cut to its top bits first, the low L = p -
    bitlen(T_i) ones dropped, which moves T_i Q / 2^p by under an ulp and
    keeps both factors as short as the shrinking term.  With x <= pi/3
    every term is then within 2 ulps of its exact value at X, and the
    series stops at a term that is 0, so within 2 ulps of 0, which bounds
    the alternating tail.  Hence rho_s = 2 (terms + 1) + rho_x, since
    |sin'| <= 1.  cos x = sqrt(1 - sin^2 x) is isqrt(2^(2p) - S^2): for
    sines a, b <= 0.87 (sin(pi/3) < 0.867),
    |sqrt(1 - a^2) - sqrt(1 - b^2)| = |a - b| (a + b) / (sqrt(1 - a^2) +
    sqrt(1 - b^2)) < 2 |a - b|, and the floor costs an ulp, so
    rho_c = 2 rho_s + 1.  Each ball then goes to scale 2^bits as the ball
    between the floor of its lower end and the ceiling of its upper one.
    """
    shift = bits.bit_length() + GUARD_BITS
    prec = bits + shift
    pi, rpi = _pi(prec)
    x, rx = pi // dim, -(-rpi // dim) + 1
    square = (x * x) >> prec
    s, term, i = 0, x, 0
    while term:
        s += -term if i & 1 else term
        i += 1
        cut = max(prec - term.bit_length(), 0)
        term = ((term * (square >> cut)) >> (prec - cut)) // (2 * i * (2 * i + 1))
    rs = 2 * (i + 1) + rx
    c = math.isqrt((1 << (2 * prec)) - s * s)
    return _ball_within(c, 2 * rs + 1, shift), _ball_within(s, rs, shift)


@lru_cache(maxsize=2)
def _rotation_table(dim: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Balls (S_j, R_j) around 2^bits sin(j pi/N), j = 0..floor(N/2).

    :func:`_chebyshev_sines` builds them e = 2 bitlen(floor(N/2)) + 2 bits
    wider, which holds its quadratic error growth to a few ulps here.
    Cached per (N, F): the row spectrum and the cosine table read the same one.
    """
    extra = 2 * (dim // 2).bit_length() + 2
    return tuple(_ball_down(x, rx, extra) for x, rx in _chebyshev_sines(dim, bits + extra))


@lru_cache(maxsize=2)
def _cosine_table(dim: int, bits: int) -> tuple[tuple[int, ...], int]:
    """Midpoints around 2^bits cos(2 i pi/N), i = 0..N-1, and one radius for all of them.

    Entry i <= N/2 is 2^bits - 2 floor(S_i^2 / 2^bits), from the rotation
    table's ball (S_i, R_i) around 2^bits s_i, so the table shares its seed
    and recurrence; cos(2 (N - i) pi/N) is the same value, so the upper
    half mirrors the lower and a phase index needs no fold.  With R = max
    R_i, |S_i| <= 2^bits + R and 2^bits s_i <= 2^bits, so |S_i^2 - 2^(2 bits)
    s_i^2| <= R (2^(bits+1) + R); the floor costs under an ulp, so each
    square is within floor(R (2^(bits+1) + R) / 2^bits) + 2, and the cosine
    within twice that.  Cached per (N, F).
    """
    sines = _rotation_table(dim, bits)
    rad = max(r for _, r in sines)
    half = [(1 << bits) - 2 * (s * s >> bits) for s, _ in sines]
    return tuple(half + half[:0:-1]), 2 * ((rad * ((2 << bits) + rad) >> bits) + 2)


def _chebyshev_sines(dim: int, bits: int) -> list[tuple[int, int]]:
    """Balls (S_j, R_j) around 2^bits sin(j pi/N), j = 0..floor(N/2), one product each.

    The sines of the rotation z^j = exp(i j pi/N) obey the Chebyshev
    recurrence s_{j+1} = 2c s_j - s_{j-1}, c = cos(pi/N).  :func:`_seed`
    gives balls (C, rho_c) and (S_1, rho_s) around (c, s_1); N = 1 has
    only s_0 = 0 and needs none.  Write eps_j = S_j - 2^bits s_j, so
    eps_0 = 0 and |eps_1| <= rho_s.  A step S_{j+1} = floor(2 C S_j / 2^bits) - S_{j-1},
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
    half = dim // 2
    if not half:
        return [(0, 0)]
    (c, rc), (s, rs) = _seed(dim, bits)
    table, twice = [0, s][: half + 1], 2 * c
    for _ in range(half - 1):
        table.append(((twice * table[-1]) >> bits) - table[-2])
    d = -(-2 * rc * max(map(abs, table)) >> bits) + 1
    return [(x, j * rs + j * (j - 1) // 2 * d) for j, x in enumerate(table)]


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
    """The n-th power, n >= 1, of the ball (x, rx): binary powering of the midpoint alone.

    Left to right, each step floors once: a square Y <- floor(Y^2 / 2^bits),
    on a set bit a product Y <- floor(Y x / 2^bits).  The radius is not
    carried through the loop but bounded once, in closed form.  Write u =
    2^-bits, X = x u and a = max(1, (|x| + rx) u), so |X| <= a and every
    point t of the ball has |t| <= a.  Suppose Y u is within e = a^m ((1 +
    u)^h - 1) of X^m.  A square is then within (a^m + e)^2 - a^(2m) + u <=
    a^(2m) ((1 + u)^(2h+1) - 1) of X^(2m), and a product within a e + u <=
    a^(m+1) ((1 + u)^(h+1) - 1) of X^(m+1), because a >= 1.  h = 0 at m = 1,
    so h = m - 1 throughout.  The ball adds |t^n - X^n| <= n a^(n-1) rx u.
    Where (n - 1) u <= 1/2, (1 + u)^(n-1) - 1 <= 2 (n - 1) u, so

        |Y u - t^n| <= a^n u (n rx + 2 (n - 1)) < c u a^n,   c = n (rx + 2):

    the radius is c a^n ulps.  Where n (rx + 4) <= 2^bits, so that n rx u
    <= 1, which gives (1 + rx u)^n <= 1 + 2 n rx u, and 4 n u <= 1, a^n is
    bounded in integers from the computed midpoint:

    - |x| < 2^bits: a <= 1 + rx u, so a^n <= 1 + 2 n rx u.
    - |x| >= 2^bits: a = |X| (1 + rx/|x|) with rx/|x| <= rx u, so a^n <=
      |X|^n (1 + 2 n rx u).  The midpoint's own bound, at a = |X| >= 1,
      gives |Y| u >= |X|^n (1 - 2 (n - 1) u), so |X|^n <= |Y| u (1 + 4 n u).
      Together, a^n <= |Y| u (1 + 4 n (rx + 1) u), as 8 n^2 rx u^2 <= 2 n rx u.

    Elsewhere the radius is the always-valid |Y| + floor((|x| + rx)^n /
    2^((n-1) bits)) + 1, the sum of both magnitudes.
    """
    y = x
    for bit in bin(n)[3:]:
        y = (y * y) >> bits
        if bit == "1":
            y = (y * x) >> bits
    c = n * (rx + 2)
    if n * (rx + 4) > 1 << bits:
        return y, abs(y) + ((abs(x) + rx) ** n >> (n - 1) * bits) + 1
    if abs(x) >> bits:
        m = c * abs(y)
        return y, (m >> bits) + (m * 4 * n * (rx + 1) >> 2 * bits) + 2
    return y, c + (c * 2 * n * rx >> bits) + 1


def _below_ulp(q: int, rq: int, n: int, width: int) -> bool:
    """Whether the n-th power of the ball (q, rq) at scale 2^width is below one ulp.

    With b = bitlen(|q| + rq), every point of the ball is below 2^(b - width)
    in magnitude, so its n-th power is below 2^((b - width) n) <= 2^-width
    when b < width and (width - b) n >= width.  A phase weight has |cos| <= 1,
    so the weighted term is then the ball (0, 1) at scale 2^width too: no
    power and no weight need be formed.
    """
    b = (abs(q) + rq).bit_length()
    return b < width and (width - b) * n >= width


def _row_spectrum(
    params: Params, dim: int, bits: int
) -> tuple[tuple[tuple[int, int, int, int], ...], int] | None:
    """The power balls E_r^n, r = 1..floor(N/2), at the odd dimension ``dim``, or None.

    Entry (r, x, rx, g) is the ball (x, rx) around 2^g E_r^n at its own
    width g = g_r.  An error of 2^-g_r in E_r grows to about n |E_r|^(n-1)
    2^-g_r in E_r^n, and N such terms are summed, so g_r = bitlen(n) +
    bitlen(N) + GUARD_BITS + ceil((n - 1) log2 |E_r|) where |E_r| > 1,
    capped at ``bits``; log2 |E_r| is read off the table's midpoints.  A
    width only decides whether a sum certifies, never whether its radius
    encloses it.  The terms below one ulp (:func:`_below_ulp`) are left
    out; the second result is their radius, 2^(bits - g_r + 1) each at
    scale 2^bits, doubled like every term for its pair E_r = E_{N-r}.
    None means the table is too coarse to divide by (a sine ball holds 0).
    The powers do not depend on the phase; :func:`_row_form` keeps them,
    per row, in the form every coefficient of the row reads.
    """
    n = params.n
    sines = _rotation_table(dim, bits)
    least = n.bit_length() + dim.bit_length() + GUARD_BITS
    powered, slack = [], 0
    for r, (sign, j) in enumerate(_numerators(params.width, dim), 1):
        s, rs = sines[r]
        if s <= rs:
            return None
        t, rt = sines[j]
        width = least
        if t > s:
            width += math.ceil((n - 1) * (math.log2(t) - math.log2(s)))
        width = min(width, bits)
        q, rq = _ball_div(t, rt, s, rs, width)
        if _below_ulp(q, rq, n, width):
            slack += 1 << (bits - width + 1)
            continue
        x, rx = _ball_pow(sign * q, rq, n, width)
        powered.append((r, x, rx, width))
    return tuple(powered), slack


class _RowForm(NamedTuple):
    """A row spectrum as the sums read it (:func:`_row_form`).

    Term i is the midpoint ``xs[i]`` around 2^g E_r^n, r = ``rs[i]``, at
    its width g = F - ``cuts[i]``.  ``spread`` is sum rx 2^cut, at scale
    2^F; ``slack`` is the radius of the terms left out below one ulp, at
    2^F.
    """

    rs: tuple[int, ...]
    xs: tuple[int, ...]
    cuts: tuple[int, ...]
    spread: int
    slack: int


@lru_cache(maxsize=8)
def _row_form(params: Params, dim: int, bits: int) -> _RowForm | None:
    """The row spectrum (:func:`_row_spectrum`) at scale 2^bits, as a :class:`_RowForm`, or None.

    Cached per (k, n, N, F): every coefficient of a row reads the same one.
    """
    spectrum = _row_spectrum(params, dim, bits)
    if spectrum is None:
        return None
    terms, slack = spectrum
    rs, xs, rads, widths = list(zip(*terms)) or [()] * 4
    cuts = tuple(bits - g for g in widths)
    return _RowForm(rs, xs, cuts, sum(map(lshift, rads, cuts)), slack)


@lru_cache(maxsize=8)
def _phase_form(params: Params, dim: int, bits: int) -> tuple[tuple[int, ...], int]:
    """What a phase's sum reads beyond the row form: its shifts and its radius.

    ``ups[i]`` = 2 cut + 1 takes term i's weighted product from scale
    2^(2g) to 2^(2F), doubled for the pair E_r = E_{N-r}.  The radius, at
    2^(2F), is the same for every phase of the row (see
    :func:`_evaluate_arbitrary`), so the central sum, which reads neither,
    never builds them.  Cached per (k, n, N, F).
    """
    row = _row_form(params, dim, bits)
    _, rc = _cosine_table(dim, bits)
    magnitudes = list(map(abs, row.xs))
    mass = sum(map(lshift, magnitudes, row.cuts))
    cut_ulps = sum(m << 2 * cut for m, cut in zip(magnitudes, row.cuts) if cut)
    ups = tuple(2 * cut + 1 for cut in row.cuts)
    return ups, 2 * (rc * mass + (row.spread << bits) + cut_ulps) + (row.slack << bits)


def _evaluate_arbitrary(
    params: Params, dim: int, phase: int | None, bits: int
) -> tuple[int, float]:
    """The spectral sum at the odd dimension ``dim`` in fixed-point ball arithmetic at scale 2^bits.

    Every quantity is an integer midpoint x and an integer radius rx with
    |2^g * value - x| <= rx at its scale 2^g, and every rounding is charged
    to the radius, so the residual encloses the distance of the exact sum
    from the returned integer: no error estimate is involved.

    The powers come from the row's form (:func:`_row_form`), each at its
    own width g = F - cut.  The central sum shifts each up to 2^F and adds
    it, with radius 2 spread + slack.  A phase reads the cosine midpoint c
    at i = r * phase mod N (:func:`_cosine_table`: radius rho_c, so |c -
    2^F w| <= rho_c for the weight w), cuts it to c' = floor(c / 2^cut) at
    2^g, and adds the exact product x c' shifted from 2^(2g) up to 2^(2F):
    one sum of products per coefficient.  With X = 2^g E_r^n and |x - X| <=
    rx, the term misses 2^(2F) E_r^n w by under |x| 2^(2 cut) for the cut,
    since |c' 2^cut - c| < 2^cut (and by nothing where cut = 0), plus
    2^cut |x c - 2^F X w| <= 2^cut (|x| rho_c + 2^F rx), as |w| <= 1.
    Summed and doubled, with mass = sum |x| 2^cut and cut_ulps = sum |x|
    2^(2 cut) over the terms with cut > 0, the radius at 2^(2F) is
    2 (rho_c mass + 2^F spread + cut_ulps) + 2^F slack, the same for every
    phase of the row (:func:`_phase_form`).
    """
    row = _row_form(params, dim, bits)
    if row is None:
        return 0, math.inf
    if phase is None:
        shift = bits
        total = sum(map(lshift, row.xs, row.cuts)) << 1
        radius = 2 * row.spread + row.slack
    else:
        shift = 2 * bits
        cosines, _ = _cosine_table(dim, bits)
        ups, radius = _phase_form(params, dim, bits)
        weights = map(cosines.__getitem__, [r * phase % dim for r in row.rs])
        total = sum(map(lshift, map(mul, row.xs, map(rshift, weights, row.cuts)), ups))
    total += params.width**params.n << shift
    scale = dim << shift
    value = (2 * total + scale) // (2 * scale)
    try:
        residual = (abs(total - value * scale) + radius) / scale
    except OverflowError:
        residual = math.inf
    return value, residual


def _certify(params: Params, offset: int | None) -> CertifiedInteger:
    """p_{kn+offset}, or the central coefficient for ``offset=None``, certified.

    The central sum (and offset 0) runs at the smallest N, :func:`dimension`
    of 0.  Any other offset runs at the paper's N = 2kn+1, the smallest N
    that holds every p_l of the row, so all of them read one cached row
    form (:func:`_row_form`).  The double rung runs where its bound
    can certify; the arbitrary rung, at :func:`required_bits`, runs where
    the double rung did not certify.
    """
    dim = params.dim if offset else dimension(params, 0)
    phase = None if offset is None else offset % dim
    # The double rung's bound is at least this: its mass holds (2k+1)^n and
    # every term is charged (10n + 2)u (see _evaluate_double).  Where it
    # reaches the cap, the rung is recorded as tried, with residual inf,
    # but not evaluated.
    double_floor = _pow(float(params.width), params.n) * (10 * params.n + 2) * _EPS / dim
    value, residual = 0, math.inf
    if double_floor < DEFAULT_RESIDUAL_CAP:
        value, residual = _evaluate_double(params, dim, phase)
    rungs = [("double", _DOUBLE_BITS, residual)]
    policy = PrecisionPolicy("double")
    if residual >= DEFAULT_RESIDUAL_CAP:
        bits = required_bits(params)
        value, residual = _evaluate_arbitrary(params, dim, phase, bits)
        rungs.append(("arbitrary", bits, residual))
        policy = PrecisionPolicy("arbitrary", bits)
    if residual < DEFAULT_RESIDUAL_CAP:
        return CertifiedInteger(
            value=value,
            residual=residual,
            policy_used=policy,
            dim=dim,
            escalations=len(rungs) - 1,
            rungs=tuple(rungs),
        )
    where = "central sum" if phase is None else f"coefficient sum at phase offset {phase}"
    raise CertificationError(
        f"residual {residual} >= cap {DEFAULT_RESIDUAL_CAP} for the {where} "
        f"(k={params.k}, n={params.n}) even at strategy 'arbitrary'",
        residual=residual,
        rungs=tuple(rungs),
    )


def central_via_spectrum(params: Params) -> CertifiedInteger:
    """M^(2k,n) from the closed-form sine-ratio sum at the smallest odd N > kn, certified."""
    return _certify(params, None)


def coefficient_via_spectrum(params: Params, l: int) -> CertifiedInteger:
    """Coefficient ``p_l`` from the phase-weighted spectral sum, certified.

    Uses the real cosine form: the eigenvalue pairing E_r = E_{N-r} (the
    0-based Fourier index r, as in the rest of the module) cancels the
    imaginary parts of the conjugate Fourier phases, leaving cosine
    weights.  The phase index is taken relative to the central column,
    ``(l - kn) mod N``: the n-th power of the central circulant stores
    ``p_l`` that many columns right of its diagonal, and phase 0 (l = kn)
    reduces to the central sum.  N is 2kn+1 for l != kn, shared by the
    row, and :func:`dimension` of 0 at l = kn.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    return _certify(params, l - params.k * params.n)
