"""Trigonometric spectral route to (2k+1)-nomial coefficients.

The symmetric circulant diagonalizes in the discrete Fourier basis, so its
trace power collapses to a finite sum of sine-ratio powers:

    M = (1/N) * [ (2k+1)^n + sum_{r=1}^{N-1} (sin((2k+1)r pi/N) / sin(r pi/N))^n ]

The paper takes N = 2kn+1.  At any odd N the sum, with the phase of an
offset d = l - kn, gives the sum of p_{kn+t} over t = d (mod N), and every
term but p_l drops out once N > kn + |d| (:func:`dimension`, the tight
bound).  The centre l = kn, phase 0, is the sum of the powers alone and
runs at the smallest such N, about kn (:func:`central_run`).  Any other
coefficient runs at 2kn+1, which holds the whole row: E_r does not depend
on l, so the arbitrary rung powers it once per row (:func:`_phase_form`)
and each l only weights those powers by its phase.  The trace route keeps
2kn+1 too.  E_r = E_{N-r} pairs the terms on both rungs, which compute
E_r by two formulas.  The double rung reads one half-table of sines,
s_j = sin(j pi/N) for j <= N/2: numerators read it mirrored and signed,
and the phase cosine is 1 - 2 s_j^2.  The arbitrary rung reads one table
of cosines, cos(2 pi i/N) for i < N: E_r is the cosine sum 1 + 2
sum_{j=1..k} cos(2 pi j r/N) that the sine ratio closes, k additions
and no division, and a phase weight is one entry.  It builds its table
once per sum and keeps one row.  The sums are rounded back to integers,
so every result carries a certificate: the pre-rounding distance from the
nearest integer plus a bound on the evaluation error, required to stay
under a cap.  The bound matters: once terms outgrow the mantissa the
measured distance alone is blind (above 2^53 every double is an
integer).  The ladder has two rungs, and the code chooses: the double
rung, with a forward error bound, runs where the floor of that bound is
below the cap, so no power overflows (:func:`_double_rung`); when it
does not certify, the arbitrary rung evaluates the sum in
fixed-point ball arithmetic at :func:`required_bits`, whose radius encloses
every rounding, each term at the width its size needs.  Its cosines are
seeded in integers alone (Machin's pi and the sine series), so the module
needs only the standard library.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from math import pi, sin
from operator import lshift, mul, neg, rshift
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


@lru_cache(maxsize=32)
def _sine_table(dim: int) -> tuple[float, ...]:
    """The half-table s_j = sin(j pi/N), j = 0..floor(N/2), the double rung's only sines.

    Every argument lies in [0, pi/2], where x cot x <= 1: the relative error
    of s_j is at most that of its argument plus the sine's own rounding.
    s_0 = 0 needs no call, so a table costs floor(N/2) sines.  Cached per
    N: a row's ratios and phase weights read one table, and so do the
    sums of different n that meet at one N, as the n of a ``sequence`` or
    the cases of a ``verify`` grid do.  The cache is sized for one
    request, which starts with it empty (``cnomial.cli.KEPT_CACHES``).
    """
    return (0.0, *[sin((pi * j) / dim) for j in range(1, dim // 2 + 1)])


def _ratios(m: int, sines: tuple[float, ...]) -> list[float]:
    """E_r = sin(m r pi/N) / sin(r pi/N) for r = 1..floor(N/2), from the half-table.

    The numerator's angle is reduced exactly, t = m r mod 2N, and read off
    the half-table extended to sin(t pi/N) for t = 0..2N-1: mirrored,
    sin(t pi/N) = s_{N-t}, and negated, sin(t pi/N) = -sin((t-N) pi/N);
    t = 0 or N (when gcd(m, N) > 1) reads s_0, a zero numerator.  So only
    the division rounds, and each entry is one index and one division.
    E_r is the Dirichlet kernel sin(m theta/2) / sin(theta/2) at theta = 2 pi r/N and at
    2 pi (N - r)/N; ``verify``'s eigen-ratios check compares the two.
    """
    twice = 4 * len(sines) - 2  # 2N
    row = [*sines, *sines[:0:-1]]
    signed = row + list(map(neg, row))
    return [signed[m * r % twice] / sines[r] for r in range(1, len(sines))]


@lru_cache(maxsize=32)
def _ratio_row(m: int, dim: int) -> tuple[float, ...]:
    """:func:`_ratios` of m = 2k+1 on the half-table of N, cached per (m, N).

    E_r does not depend on n: the central sums of n and n + 1 can share
    one N, and ``verify`` checks the ratios its central sum powers.  A
    request starts with it empty.
    """
    return tuple(_ratios(m, _sine_table(dim)))


@lru_cache(maxsize=8)
def _double_spectrum(params: Params, dim: int) -> tuple[tuple[float, ...], float]:
    """The paired terms of the central sum and their mass A, in doubles.

    The terms are (2k+1)^n, then 2 E_r^n for r = 1..floor(N/2): E_r =
    E_{N-r} for the 0-based Fourier index r (numerator and denominator are
    both symmetric about N/2 when 2k+1 is odd), so each pair of the full
    sum over r = 1..N-1 is one doubled term, and the doubling is exact.
    A = sum |term|.  Neither depends on the phase, so every coefficient of
    a row that one request reads (``verify``'s central and seeded sums of a
    case) reads the same ones; cached per (k, n, N), and a request starts
    with the cache empty.  :func:`_double_rung` asks for them only where
    its gate holds every power finite.
    """
    n, base = params.n, float(params.width)
    powers = (base**n, *[2.0 * ratio**n for ratio in _ratio_row(params.width, dim)])
    return powers, sum(map(abs, powers), 0.0)


@lru_cache(maxsize=1)
def _phase_weights(dim: int) -> tuple[float, ...]:
    """w_i = cos(2 pi i/N) = 1 - 2 s_{min(i, N-i)}^2, i = 0..N-1, from the half-table.

    The phase r * d mod N of a term is reduced exactly before it indexes
    the table, so no cosine is needed; cached per N for the phase sums of
    one request (``verify --seed``'s general l of a case), which starts
    with it empty.
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
    from 3.12 on; the forward bound of :func:`_double_rung` covers both.
    """
    if phase is None:
        return sum(powers, 0.0)
    weights = _phase_weights(dim)
    gathered = [weights[r * phase % dim] for r in range(1, len(powers))]  # w_{r d mod N}
    return sum(map(mul, powers[1:], gathered), powers[0])


def _double_rung(params: Params, dim: int, phase: int | None) -> tuple[int, float]:
    """The spectral sum at the odd dimension ``dim`` in doubles, with a forward error bound.

    The bound is at least the floor (2k+1)^n (10n + 2) u / N (below): where
    that reaches the cap, nothing is evaluated and the rung is recorded as
    tried, with residual inf.  Below the cap, (2k+1)^n < 2^51 N and
    |E_r| <= 2k+1 up to a factor 1 + O(nu), so every term 2 E_r^n is below
    2^52 N: no power overflows, and the mass, the sum and the bound stay
    finite for any N below 2^320, far past any sine table in memory.
    """
    try:
        double_floor = float(params.width) ** params.n * (10 * params.n + 2) * _EPS / dim
    except OverflowError:  # (2k+1)^n is past the largest double
        return 0, math.inf
    if double_floor >= DEFAULT_RESIDUAL_CAP:
        return 0, math.inf
    powers, mass = _double_spectrum(params, dim)
    quotient = _double_sum(powers, dim, phase) / dim
    value = round(quotient)
    # Forward error bound on the quotient in units of u = 2^-53, charged
    # against the cosine-free mass A = sum |(2k+1)^n| + 2 |E_r|^n, which also
    # bounds the weighted terms (|w_r| <= 1):
    # - s_j = sin(fl(fl(j * pi) / N)): pi carries 0.35u, the product and the
    #   quotient u each; x cot x <= 1 on [0, pi/2] passes those 2.35u on to
    #   s_j at most unchanged, and libm's sine adds one ulp (2u): 4.35u.
    # - E_r: two entries and one division, 9.7u; the fold and the sign are
    #   exact.  E_r^n multiplies that by n and pow adds an ulp; the doubling
    #   is exact: (9.7n + 2)u per term, 10n + 2 with second-order terms.
    # - w_r = 1 - 2 s_j^2: s_j^2 is within 9.7u relative and below 1, so
    #   2 s_j^2 is within 19.4u absolute and the subtraction adds u.  This
    #   error is absolute: where w_r ~ 0 it is no fraction of E_r^n w_r.
    #   With the product's rounding, a weighted term is within
    #   (10n + 2 + 21.4)u of |E_r^n|: 22 more units per term.
    # - Summation: left-to-right accumulation of len(powers) terms costs at
    #   most one u of A per addition; compensated summation costs less.
    # - Division by N and the quotient's own quantization cost one ulp of
    #   the quotient, which keeps the certificate honest above 2^53.
    per_term = 10.0 * params.n + (2.0 if phase is None else 24.0)
    bound = mass * (per_term + len(powers) + 1) * _EPS / dim
    bound += math.ulp(abs(quotient))
    return value, abs(quotient - value) + bound


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


def _seed(dim: int, bits: int) -> tuple[int, int]:
    """A ball around 2^bits sin(pi/N), odd N >= 3, in integers alone.

    The work runs at p = bits + bitlen(bits) + GUARD_BITS, on a ball
    (X, rho_x) around 2^p x, x = pi/N.  sin x is its alternating series at
    X: term i + 1 is T_i Q / 2^p over (2i+2)(2i+3), Q = floor(X^2 / 2^p),
    floored once.  Q is cut to its top bits first, the low L = p -
    bitlen(T_i) ones dropped, which moves T_i Q / 2^p by under an ulp and
    keeps both factors as short as the shrinking term.  With x <= pi/3
    every term is then within 2 ulps of its exact value at X, and the
    series stops at a term that is 0, so within 2 ulps of 0, which bounds
    the alternating tail.  Hence rho_s = 2 (terms + 1) + rho_x, since
    |sin'| <= 1.  The ball then goes to scale 2^bits as the ball between
    the floor of its lower end and the ceiling of its upper one.
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
    return _ball_within(s, 2 * (i + 1) + rx, shift)


def _chebyshev_cosines(dim: int, bits: int) -> list[tuple[int, int]]:
    """Balls (C_j, R_j) around 2^bits cos(2 j pi/N), j = 0..floor(N/2), one product each.

    The cosines c_j = cos(2 j pi/N) of the rotation z^j = exp(2 i j pi/N)
    obey the Chebyshev recurrence c_{j+1} = 2 c_1 c_j - c_{j-1}.  C_0 =
    2^bits is exact.  C_1 = 2^bits - 2 floor(S^2 / 2^bits), since c_1 =
    1 - 2 sin^2(pi/N), from :func:`_seed`'s ball (S, rho_s) around 2^bits
    sin(pi/N): |S^2 - 2^(2 bits) sin^2(pi/N)| <= rho_s (2S + rho_s), and
    the floor cuts under an ulp, so C_1 is within rho = 2 (ceil(rho_s (2S
    + rho_s) / 2^bits) + 1).  N = 1 has only C_0 and needs no seed.
    Write eps_j = C_j - 2^bits c_j, so eps_0 = 0 and |eps_1| <= rho.  A
    step C_{j+1} = floor(2 C_1 C_j / 2^bits) - C_{j-1}, with C_1 = 2^bits
    c_1 + gamma and |gamma| <= rho, gives

        eps_{j+1} = 2 c_1 eps_j - eps_{j-1} + d_j,   d_j = 2 gamma C_j / 2^bits - f_j,

    f_j in [0, 1) being the floor's cut, so |d_j| <= d = ceil(2 rho
    max|C| / 2^bits) + 1 over the computed entries.  The recurrence is
    linear, and a kick at step i reaches entry j as U_{j-1-i}(c_1), the
    Chebyshev polynomial of the second kind, with |U_m| <= m + 1 on
    [-1, 1]; eps_1 reaches it as U_{j-1}(c_1).  Hence

        |eps_j| <= R_j = j rho + sum_{i=1}^{j-1} (j - i) d = j rho + j(j-1)/2 d,

    at any budget.
    """
    half, one = dim // 2, 1 << bits
    if not half:
        return [(one, 0)]
    s, rs = _seed(dim, bits)
    first = one - 2 * (s * s >> bits)
    rho = 2 * (-(-rs * (2 * s + rs) >> bits) + 1)
    table, twice = [one, first], 2 * first
    for _ in range(half - 1):
        table.append(((twice * table[-1]) >> bits) - table[-2])
    d = -(-2 * rho * max(map(abs, table)) >> bits) + 1
    return [(x, j * rho + j * (j - 1) // 2 * d) for j, x in enumerate(table)]


def _cosine_ring(dim: int, bits: int) -> tuple[tuple[int, ...], int]:
    """Midpoints around 2^bits cos(2 i pi/N), i = 0..N-1, and one radius for all of them.

    :func:`_chebyshev_cosines` builds the half i <= N/2 e = 2
    bitlen(floor(N/2)) + 2 bits wider, which holds its quadratic error
    growth to a few ulps here; each ball goes down to 2^bits as
    :func:`_ball_down` takes it, and R_j grows with j, so the last radius
    serves the whole table.  cos(2 (N - i) pi/N) is the same value, so the
    upper half mirrors the lower and an index r j mod N needs no fold.
    Entry 0 is 2^bits exactly.  Built once per sum, not cached: the
    eigenvalues of :func:`_row_spectrum` and the phase weights of
    :func:`_phase_form` read one table.
    """
    extra = 2 * (dim // 2).bit_length() + 2
    half = _chebyshev_cosines(dim, bits + extra)
    mids = [x >> extra for x, _ in half]
    return tuple(mids + mids[:0:-1]), _ball_down(0, half[-1][1], extra)[1]


def _ball_down(x: int, rx: int, shift: int) -> tuple[int, int]:
    """The ball (x, rx) at a scale 2^shift times coarser.

    The midpoint's floor shift costs under an ulp; the radius rounds up.
    """
    return x >> shift, -(-rx >> shift) + 1


def _power_radius(x: int, rx: int, y: int, n: int, bits: int) -> int:
    """The radius of the midpoint y of x^n, reached by any chain of floor squares and floor products by x.

    Each step of the chain floors once: a square Y <- floor(Y^2 / 2^bits)
    or a product Y <- floor(Y x / 2^bits), in any order; binary powering
    is one such chain, and so is any chain continued by products, as the
    n of a run (:func:`_row_spectrum`) are.  Write u = 2^-bits, X = x u
    and a = max(1, (|x| + rx) u), so |X| <= a and every point t of the
    ball has |t| <= a.  Suppose Y u is within e = a^m ((1 + u)^h - 1) of
    X^m.  A square is then within (a^m + e)^2 - a^(2m) + u <=
    a^(2m) ((1 + u)^(2h+1) - 1) of X^(2m), and a product within a e + u <=
    a^(m+1) ((1 + u)^(h+1) - 1) of X^(m+1), because a >= 1.  h = 0 at m = 1,
    so h = m - 1 throughout, whatever the chain.  The ball adds |t^n - X^n|
    <= n a^(n-1) rx u.  Where (n - 1) u <= 1/2, (1 + u)^(n-1) - 1 <= 2 (n -
    1) u, so

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
    c = n * (rx + 2)
    if n * (rx + 4) > 1 << bits:
        return abs(y) + ((abs(x) + rx) ** n >> (n - 1) * bits) + 1
    if abs(x) >> bits:
        m = c * abs(y)
        return (m >> bits) + (m * 4 * n * (rx + 1) >> 2 * bits) + 2
    return c + (c * 2 * n * rx >> bits) + 1


def _below_ulp(q: int, rq: int, n: int, width: int) -> bool:
    """Whether the n-th power of the ball (q, rq) at scale 2^width is below one ulp.

    With b = bitlen(|q| + rq), every point of the ball is below 2^(b - width)
    in magnitude, so its n-th power is below 2^((b - width) n) <= 2^-width
    when b < width and (width - b) n >= width.  A phase weight has |cos| <= 1,
    so the weighted term is then the ball (0, 1) at scale 2^width too: no
    power and no weight need be formed.  A term below one ulp at n stays
    below at every larger n.
    """
    b = (abs(q) + rq).bit_length()
    return b < width and (width - b) * n >= width


class _RowForm(NamedTuple):
    """One n of a row spectrum (:func:`_row_spectrum`), as the sums read it.

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


def _eigenvalues(
    k: int, cosines: tuple[int, ...], rad: int, bits: int, last: int
) -> list[tuple[int, int, int, int]]:
    """Balls (r, x, rx, g) around 2^g E_r, r = 1..floor(N/2), at the width g their powers need up to n = ``last``.

    E_r = 1 + 2 sum_{j=1..k} cos(2 pi j r/N) is the eigenvalue as the sum
    of the circulant row's Fourier phases; the sine ratio of :func:`_ratios`
    is its closed form.  ``cosines`` and ``rad`` are :func:`_cosine_ring`
    of N at F = ``bits``: the midpoint 2^F + 2 sum_j C_{j r mod N} is an
    exact integer sum, within 2k ``rad`` of 2^F E_r, and the table repeated
    k times reads j r mod N, j = 1..k, as one slice.  The ball then goes
    down to its width g as :func:`_ball_down` takes it.  An error of 2^-g
    in E_r grows to about n |E_r|^(n-1) 2^-g in E_r^n, and N such terms
    are summed, so g = bitlen(n) + bitlen(N) + GUARD_BITS + ceil((n - 1)
    log2 |E_r|) where |E_r| > 1, capped at ``bits``, at n = ``last``;
    log2 |E_r| is read off the midpoint.  A width only decides whether a
    sum certifies, never whether its radius encloses it, and the widths
    of the largest n serve every smaller one.
    """
    dim, one = len(cosines), 1 << bits
    least = min(last.bit_length() + dim.bit_length() + GUARD_BITS, bits)
    ring, spread, balls = cosines * k, 2 * k * rad, []
    for r in range(1, dim // 2 + 1):
        e = one + 2 * sum(ring[r : k * r + 1 : r])
        cut = bits - least
        if abs(e) > one:
            cut = max(cut - math.ceil((last - 1) * (math.log2(abs(e)) - bits)), 0)
        # _ball_down inline: its call is about 5 % of a small row's form
        balls.append((r, e >> cut, -(-spread >> cut) + 1, bits - cut))
    return balls


def _row_spectrum(
    k: int, first: int, last: int, cosines: tuple[int, ...], rad: int, bits: int
) -> Iterator[_RowForm]:
    """The power balls E_r^n, r = 1..floor(N/2), on the cosine table ``cosines``, for n = first..last.

    ``cosines`` and ``rad`` are :func:`_cosine_ring` of N at F = ``bits``.
    Yields one :class:`_RowForm` per n, 1 <= first <= last.  The ball (x,
    rx) around 2^g E_r^n is kept at the width g of its eigenvalue
    (:func:`_eigenvalues`): the form holds x and the cut F - g, and adds rx
    2^cut to its spread.  The terms below one ulp (:func:`_below_ulp`) are
    left out; the slack is their radius, 2^(bits - g + 1) each at scale
    2^bits, doubled like every term for its pair E_r = E_{N-r}.

    E_r does not depend on n, so each is summed once.  The first n powers
    it by binary powering of the midpoint alone, along the chain of
    ``first``'s bits, worked out once for the run; each later n is one
    floor product y <- floor(y E_r / 2^g) of the n before.  Every radius
    is the closed form of :func:`_power_radius`.  The powers do not depend
    on the phase; :func:`_phase_form` keeps a run of one, per row, for
    every coefficient of the row to read.
    """
    odd = [bit == "1" for bit in bin(first)[3:]]  # the binary chain of x^first
    # (r, E_r's midpoint and radius, g, the power of the n before)
    live = [(*ball, None) for ball in _eigenvalues(k, cosines, rad, bits, last)]
    slack = 0
    for n in range(first, last + 1):
        kept, terms = [], []
        for r, x, rx, g, y in live:
            if _below_ulp(x, rx, n, g):
                slack += 1 << (bits - g + 1)
                continue
            if y is None:
                y = x
                for step in odd:
                    y = (y * y) >> g
                    if step:
                        y = (y * x) >> g
            else:
                y = (y * x) >> g
            kept.append((r, x, rx, g, y))
            terms.append((r, y, bits - g, _power_radius(x, rx, y, n, g) << bits - g))
        live = kept
        *columns, spreads = list(zip(*terms)) or [()] * 4
        yield _RowForm(*columns, sum(spreads), slack)


@lru_cache(maxsize=1)
def _phase_form(
    params: Params, dim: int, bits: int
) -> tuple[_RowForm, tuple[int, ...], tuple[int, ...], int]:
    """What a phase's sum reads: the row form, the cosines, the shifts and the radius.

    The row form (:func:`_row_spectrum` of n alone) and the phase weights
    read one cosine table (:func:`_cosine_ring`).
    ``ups[i]`` = 2 cut + 1 takes term i's weighted product from scale
    2^(2g) to 2^(2F), doubled for the pair E_r = E_{N-r}.  The radius, at
    2^(2F), is the same for every phase of the row (see
    :func:`_evaluate_arbitrary`).  Cached per (k, n, N, F), one row: every
    coefficient of a row reads the same one.  One of the two caches that
    outlive a request (``cnomial.cli.KEPT_CACHES``), for the l of one row
    that come in separate requests.
    """
    cosines, rc = _cosine_ring(dim, bits)
    row = next(_row_spectrum(params.k, params.n, params.n, cosines, rc, bits))
    magnitudes = list(map(abs, row.xs))
    mass = sum(map(lshift, magnitudes, row.cuts))
    cut_ulps = sum(m << 2 * cut for m, cut in zip(magnitudes, row.cuts) if cut)
    ups = tuple(2 * cut + 1 for cut in row.cuts)
    return row, cosines, ups, 2 * (rc * mass + (row.spread << bits) + cut_ulps) + (row.slack << bits)


def _rounded(total: int, radius: int, scale: int) -> tuple[int, float]:
    """The integer v nearest total / scale, and the least double >= (|total - v scale| + radius) / scale."""
    value = (2 * total + scale) // (2 * scale)
    distance = abs(total - value * scale) + radius
    try:
        residual = distance / scale
    except OverflowError:
        return value, math.inf
    numerator, denominator = residual.as_integer_ratio()
    if numerator * scale < distance * denominator:  # int / int rounds to nearest: one step up
        residual = math.nextafter(residual, math.inf)
    return value, residual


def _central_ball(params: Params, row: _RowForm, dim: int, bits: int) -> tuple[int, float]:
    """The central sum of a row form at the odd dimension ``dim``, at scale 2^bits.

    Each power is shifted up to 2^F and added, doubled for its pair, to
    2^F (2k+1)^n.  The shifts are exact, so the radius is 2 spread + slack.
    """
    total = (sum(map(lshift, row.xs, row.cuts)) << 1) + (params.width**params.n << bits)
    return _rounded(total, 2 * row.spread + row.slack, dim << bits)


def _evaluate_arbitrary(params: Params, dim: int, phase: int, bits: int) -> tuple[int, float]:
    """The sum at ``phase`` at the odd dimension ``dim`` in fixed-point ball arithmetic at scale 2^bits.

    Every quantity is an integer midpoint x and an integer radius rx with
    |2^g * value - x| <= rx at its scale 2^g, and every rounding is charged
    to the radius, so the residual encloses the distance of the exact sum
    from the returned integer: no error estimate is involved.

    The powers and the cosines come from the row's form
    (:func:`_phase_form`), each power at its own width g = F - cut.  A
    phase reads the cosine midpoint c at i = r * phase mod N
    (:func:`_cosine_ring`: radius rho_c, so |c - 2^F w| <= rho_c for the
    weight w), cuts it to c' = floor(c / 2^cut) at 2^g, and adds the
    exact product x c' shifted from 2^(2g) up to 2^(2F): one sum of
    products per coefficient.  With X = 2^g E_r^n and |x - X| <=
    rx, the term misses 2^(2F) E_r^n w by under |x| 2^(2 cut) for the cut,
    since |c' 2^cut - c| < 2^cut (and by nothing where cut = 0), plus
    2^cut |x c - 2^F X w| <= 2^cut (|x| rho_c + 2^F rx), as |w| <= 1.
    Summed and doubled, with mass = sum |x| 2^cut and cut_ulps = sum |x|
    2^(2 cut) over the terms with cut > 0, the radius at 2^(2F) is
    2 (rho_c mass + 2^F spread + cut_ulps) + 2^F slack, the same for every
    phase of the row (:func:`_phase_form`).
    """
    row, cosines, ups, radius = _phase_form(params, dim, bits)
    shift = 2 * bits
    weights = [cosines[r * phase % dim] for r in row.rs]
    total = sum(map(lshift, map(mul, row.xs, map(rshift, weights, row.cuts)), ups))
    total += params.width**params.n << shift
    return _rounded(total, radius, dim << shift)


def _certified(
    params: Params, dim: int, phase: int | None, value: int, rungs: list[tuple[str, int, float]]
) -> CertifiedInteger:
    """The result of the rungs tried, the last of which gave ``value``, or CertificationError."""
    strategy, bits, residual = rungs[-1]
    if residual < DEFAULT_RESIDUAL_CAP:
        policy = PrecisionPolicy(strategy, None if strategy == "double" else bits)
        return CertifiedInteger(value, residual, policy, dim, len(rungs) - 1, tuple(rungs))
    where = "central sum" if phase is None else f"coefficient sum at phase offset {phase}"
    raise CertificationError(
        f"residual {residual} >= cap {DEFAULT_RESIDUAL_CAP} for the {where} "
        f"(k={params.k}, n={params.n}) even at strategy 'arbitrary'",
        residual=residual,
        rungs=tuple(rungs),
    )


def central_run(k: int, first: int, last: int) -> list[CertifiedInteger]:
    """M^(2k,n) for n = first..last (none when ``first > last``), each
    certified, from one ball spectrum.

    Each n tries the double rung at its own smallest odd N > kn.  The n
    whose double rung does not certify share one arbitrary rung: the N
    and F = :func:`required_bits` of the largest of them hold every
    smaller n too (the sum is exact at any odd N > kn), so one cosine
    table and one sum per eigenvalue serve them all, and each n after the first
    costs one product per term (:func:`_row_spectrum`).  A run of one is
    :func:`coefficient_via_spectrum` at l = kn.  Raises CertificationError
    at the first n, in order, that no rung certifies.
    """
    Params(k, first)  # refuses k < 1 and n < 0, as every route does
    tried = []
    for n in range(first, last + 1):
        params = Params(k, n)
        dim = dimension(params, 0)
        tried.append((params, dim, *_double_rung(params, dim, None)))
    escalated = {params.n for params, _, _, residual in tried if residual >= DEFAULT_RESIDUAL_CAP}
    balls = {}
    if escalated:
        top = Params(k, max(escalated))
        dim, bits = dimension(top, 0), required_bits(top)
        ns = range(min(escalated), top.n + 1)
        for n, row in zip(ns, _row_spectrum(k, ns[0], top.n, *_cosine_ring(dim, bits), bits)):
            if n in escalated:
                balls[n] = dim, bits, _central_ball(Params(k, n), row, dim, bits)
    results = []
    for params, dim, value, residual in tried:
        rungs = [("double", _DOUBLE_BITS, residual)]
        if params.n in balls:
            dim, bits, (value, residual) = balls[params.n]
            rungs.append(("arbitrary", bits, residual))
        results.append(_certified(params, dim, None, value, rungs))
    return results


def coefficient_via_spectrum(params: Params, l: int) -> CertifiedInteger:
    """Coefficient ``p_l`` from the phase-weighted spectral sum, certified.

    Uses the real cosine form: the eigenvalue pairing E_r = E_{N-r} (the
    0-based Fourier index r, as in the rest of the module) cancels the
    imaginary parts of the conjugate Fourier phases, leaving cosine
    weights.  The phase index is taken relative to the central column,
    ``(l - kn) mod N``: the n-th power of the central circulant stores
    ``p_l`` that many columns right of its diagonal.  l = kn is the
    central sum, :func:`central_run` of n alone.  Any other l runs at N =
    2kn+1, which holds the whole row, so the row shares one cached form
    (:func:`_phase_form`); the arbitrary rung, at :func:`required_bits`,
    runs where the double rung did not certify.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    offset = l - params.k * params.n
    if not offset:
        return central_run(params.k, params.n, params.n)[0]
    dim, phase = params.dim, offset % params.dim
    value, residual = _double_rung(params, dim, phase)
    rungs = [("double", _DOUBLE_BITS, residual)]
    if residual >= DEFAULT_RESIDUAL_CAP:
        bits = required_bits(params)
        value, residual = _evaluate_arbitrary(params, dim, phase, bits)
        rungs.append(("arbitrary", bits, residual))
    return _certified(params, dim, phase, value, rungs)
