"""Circulant-matrix route to (2k+1)-nomial coefficients.

The route powers one matrix, the symmetric central circulant C
(first-row ones at offsets -k..k mod N), by squaring, and keeps only the
nonzero window of each power: the window of Cᵉ is the coefficient row of
(1 + x + ... + x^{2k})ᵉ.  Every coefficient is read off the windows of
two half powers (:func:`coefficient_via_shift`); the central one, the
trace of Cⁿ over N, takes half the products (:func:`_central_read`).  A
run of consecutive n (:func:`central_run`) powers its first half power
only: each later window is one product by C of the one before.  The ring
of N points appears only in :func:`matrix_power`.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul, sub

from .params import Params

#: Smallest packed product, in bits (fields times field width), that a
#: powering step forms by one libmpdec multiply of decimal fields; smaller
#: products are one CPython int product of binary fields.  libmpdec's
#: number-theoretic transform beats CPython's Karatsuba only on large
#: operands, and its decimal packing costs more than the binary one:
#: ``tools/bench_step.py`` times both kernels at packed sizes 2^12 to 2^20.
DECIMAL_MIN_BITS = 200_000

#: Packed size, in bits, below which :func:`_window` forms a power
#: of C by one ``pow`` of C's packed row instead of one step per bit.  The
#: one ``pow`` saves the per-step unpacking and packing in Python, but its
#: fields are as wide as the last step's all along, so on large powers the
#: steps' narrower early squares win.  ``tools/bench_step.py`` times both:
#: the ``pow`` is 1.2 to 3.2 times as fast up to 2^15 bits, 1.0 to 1.3 at
#: 2^16, 0.9 to 1.2 at 2^17, and slower from 2^18 on.
POW_MAX_BITS = 2**16

#: Integer products in this context are exact at any size: nothing rounds.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def matrix_power(params: Params, e: int) -> tuple[int, ...]:
    """First row of Cᵉ, C the central circulant of ``params`` on N = 2kn+1
    points, for 0 <= e <= n; e=0 gives the identity's.

    C's ones sit at offsets -k..k, so the nonzeros of Cᵉ lie in the
    window of 2ke+1 entries from -ke mod N: only that window is formed
    (:func:`_window`), and its place is known, never searched for.  For
    e <= n the window has at most N entries, so it never wraps onto
    itself; a larger e is refused.
    """
    if not 0 <= e <= params.n:
        raise ValueError(f"power must be in [0, {params.n}], got {e}")
    return _place(_window(params.k, e), -params.k * e, params.dim)


@lru_cache(maxsize=16)
def _window(k: int, e: int) -> tuple[int, ...]:
    """The window of Cᵉ: its 2ke+1 entries from offset -ke on.

    Binary powering, one bit of e per level: an even power is the square
    of its half (:func:`_square`), an odd one the product by C
    (:func:`_times_central`) of the even power below it.  A power small
    enough (:data:`POW_MAX_BITS`, :data:`DECIMAL_MIN_BITS`) is one ``pow``
    (:func:`_central_power`) instead.  Cached per (k, e): the chain of
    one power shares its own halves, and the reads of one request (the
    cases of ``verify``, the l of a case) share their half powers.  A run
    of n (:func:`central_run`) asks for its first window only.  The cache
    is sized for one request, which starts with it empty
    (``cnomial.cli.KEPT_CACHES``).  The window's
    entries sum to the row sum (2k+1)ᵉ, since row sums multiply under
    cyclic convolution; that sum bounds every entry of a square.
    """
    if not e or (2 * k * e + 1) * 8 * _field_bytes(k, e) < min(POW_MAX_BITS, DECIMAL_MIN_BITS):
        return tuple(_central_power(k, e))
    if e % 2:
        return tuple(_times_central(_window(k, e - 1), k))
    return tuple(_square(_window(k, e // 2), (2 * k + 1) ** e))


def _field_bytes(k: int, f: int) -> int:
    """The byte length of (2k+1)ᶠ, the row sum of Cᶠ: bytes enough for any of its entries."""
    return (((2 * k + 1) ** f).bit_length() + 7) // 8


def _central_power(k: int, f: int) -> list[int]:
    """The window of Cᶠ by one ``pow`` of C's packed row.

    C's window is 2k+1 ones, so its packed row, with fields of b bits, is
    R = sum_{j=0}^{2k} 2^(bj) = (2^(b(2k+1)) - 1) / (2^b - 1), and Rᶠ packs
    Cᶠ's window of 2kf+1 fields.  Each entry is at most the row sum
    (2k+1)ᶠ, and b is 8 times its byte length, so no field carries.  The
    window is a palindrome: its lowest kf+1 fields give the rest.
    """
    nbytes = _field_bytes(k, f)
    b = 8 * nbytes
    packed = pow(((1 << b * (2 * k + 1)) - 1) // ((1 << b) - 1), f)
    return _mirrored(_unpack_bytes(packed, nbytes, k * f + 1))


def _place(values: Sequence[int], start: int, dim: int) -> tuple[int, ...]:
    """The first row of dimension ``dim`` holding ``values`` from ``start`` on
    (mod ``dim``) and zeros elsewhere; ``values`` has at most ``dim`` entries."""
    start %= dim
    out = (*values, *repeat(0, dim - len(values)))
    return out[dim - start :] + out[: dim - start]


def _square(values: Sequence[int], bound: int) -> list[int]:
    """The window of X², from the palindromic window ``values`` of X.

    ``bound`` is at least every entry of X², and X's entries are
    nonnegative.  The square's window starts at twice the start of X's and
    has 2w-1 fields for w entries of X.

    The window is packed as fixed-width fields into one number, and one
    square forms every field of X² at once.  The fields are wide enough
    to hold ``bound``, so no carry crosses from one into the next.  Below
    :data:`DECIMAL_MIN_BITS` of product the fields are bytes of a CPython
    int; from there on they are decimal digits of a
    :class:`~decimal.Decimal`, whose multiply is a number-theoretic
    transform inside libmpdec.  Every window of a power of C is a
    palindrome, and so is its square: only its lowest w fields are read.
    """
    w = len(values)
    if (2 * w - 1) * 8 * (nbytes := bound.bit_length() // 8 + 1) < DECIMAL_MIN_BITS:
        packed = _pack_bytes(values, nbytes)
        fields = _unpack_bytes(packed * packed, nbytes, w)
    else:
        digits = bound.bit_length() * 30103 // 100000 + 1  # 10**digits > bound
        packed = _pack(values, digits)
        fields = _unpack(_EXACT.multiply(packed, packed), digits, w)
    return _mirrored(fields)


def _mirrored(half: list[int]) -> list[int]:
    """The palindrome of 2w-1 entries whose lowest w are ``half``."""
    return half + half[-2::-1]


def _times_central(values: Sequence[int], k: int) -> list[int]:
    """The window of X C, from the window ``values`` of X.

    C's ones sit at offsets -k..k, so X C's window starts k before X's and
    is 2k entries longer.  Its entry j is the sum of the 2k+1 entries of
    X's window from j - 2k to j: with X's window padded by 2k zeros on
    each side and P its prefix sums, P[j + 2k + 1] - P[j].  Both passes
    run in ``accumulate`` and ``map``, so each entry costs one big-int
    addition and one subtraction whatever k is.
    """
    pad = [0] * (2 * k)
    prefix = list(accumulate(chain(pad, values, pad), initial=0))
    return list(map(sub, prefix[2 * k + 1 :], prefix))


def _pack_bytes(values: Sequence[int], nbytes: int) -> int:
    """sum values[i] * 256**(nbytes*i), each value below 256**nbytes."""
    data = b"".join(v.to_bytes(nbytes, "little") for v in values)
    return int.from_bytes(data, "little")


def _unpack_bytes(packed: int, nbytes: int, count: int) -> list[int]:
    """The lowest ``count`` fields of ``nbytes`` bytes of ``packed``, lowest first."""
    size = count * nbytes
    data = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    fields = (data[i : i + nbytes] for i in range(0, size, nbytes))
    return list(map(int.from_bytes, fields, repeat("little")))


def _pack(values: Sequence[int], digits: int) -> Decimal:
    """sum values[i] * 10**(digits*i), each value below 10**digits.

    Conversions go through :class:`~decimal.Decimal`, to which CPython's
    int/str digit limit does not apply.
    """
    return Decimal("".join(str(Decimal(v)).zfill(digits) for v in reversed(values)))


def _unpack(packed: Decimal, digits: int, count: int) -> list[int]:
    """The lowest ``count`` fields of ``digits`` digits of ``packed``, lowest first.

    ``int`` parses a field directly within CPython's int/str digit limit
    (0: none, as on Pythons before 3.10.7, which have no limit); a wider
    field goes through :class:`~decimal.Decimal`.
    """
    text = str(packed)[-digits * count :].zfill(digits * count)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    parse = int if not 0 < limit < digits else lambda field: int(Decimal(field))
    return [parse(text[i : i + digits]) for i in range(len(text) - digits, -1, -digits)]


@lru_cache(maxsize=1)
def _half_power_windows(k: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Windows of X = C^{floor(n/2)} and Y = X, or X C when n is odd, for
    the central circulant C of (k, n).

    X's window is :func:`_window`'s cached tuple itself.  One pair is
    kept: reads come in runs on one row, and Y's window at large n holds
    MBs.  A miss drops the kept pair before it builds the next one, so
    that two are never held at once.  One of the two caches that outlive
    a request (``cnomial.cli.KEPT_CACHES``), for the l of one row that
    come in separate requests.
    """
    _half_power_windows.cache_clear()
    x = _window(k, n // 2)
    return x, (tuple(_times_central(x, k)) if n % 2 else x)


def coefficient_via_shift(params: Params, l: int) -> int:
    """Coefficient ``p_l`` read from the n-th power of the central circulant.

    The m-shifted circulant is boolean, with first-row ones at offsets
    ``{m, ..., m+2k} mod N``: the block 1 + x + ... + x^{2k} times x^m in
    the polynomial picture.  Its n-th power has first row
    ``b_j = p_{(j - n*m) mod N}``: the shift multiplies the whole row of
    coefficients by x^{n*m}, rotating it through the ring.  The central
    circulant C, ones at offsets -k..k (a leading 1, a block of k ones and
    a trailing block of k ones), is the shift ``m = N - k``, so ``p_l``
    sits at offset ``(l - kn) mod N``.

    The n-th power is never formed: the entry is read off the windows x
    and y of the two half powers (:func:`_half_power_windows`), cached per
    (k, n) for the other coefficients of the same row.  The window of Cᵉ,
    2ke+1 entries from offset -ke, is the coefficient row of
    (1 + x + ... + x^{2k})ᵉ, so p_l = sum_j x_j y_{l-j}.  The windows'
    product has 2kn+1 = N coefficients and fills the ring exactly, so no
    index wraps and none is reduced mod N.  y is a palindrome, so
    y_{l-j} = y_{j+c} with c = len(y) - 1 - l: one pass over aligned
    slices from j = max(0, -c) on.

    The central coefficient, l = kn, is Tr(Cⁿ) / N: every diagonal entry
    of a circulant equals its (0, 0) entry, the first row's entry at
    offset 0.  It takes half the products (:func:`_central_read`).
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    x, y = _half_power_windows(params.k, params.n)
    if l == params.k * params.n:
        return _central_read(x, y)
    c = len(y) - 1 - l
    lo = max(0, -c)
    return sum(map(mul, x[lo:], y[lo + c :]))


def _central_read(x: Sequence[int], y: Sequence[int]) -> int:
    """p_kn from the windows x of C^⌊n/2⌋ and y of C^⌈n/2⌉.

    p_kn = sum_t x_{i+t} y_{j-t}, with i = k⌊n/2⌋ and j = kn - i the
    windows' centres, both on offset 0.  C is symmetric, so both windows
    are palindromes and x_{i+t} y_{j-t} = x_{i-t} y_{j+t}: the terms t and
    -t are equal, so p_kn = x_i y_j + 2 sum_{t>=1} x_{i+t} y_{j+t}, over
    aligned slices, half the products.
    """
    i, j = len(x) // 2, len(y) // 2
    return x[i] * y[j] + 2 * sum(map(mul, x[i + 1 :], y[j + 1 :]))


def central_run(k: int, first: int, last: int) -> list[int]:
    """M^(2k,n) for n = first..last, ``first <= last``, each read off the
    windows of C^⌊n/2⌋ and C^⌈n/2⌉ (:func:`_central_read`).

    The first pair comes from :func:`_window`.  From n to n + 1, ⌈n/2⌉
    goes up by one when n + 1 is odd and ⌊n/2⌋ catches up with it when
    n + 1 is even, so each later window is one :func:`_times_central` of
    the one before, and an even n forms none.
    """
    Params(k, first)  # refuses k < 1 and n < 0, as every route does
    x = _window(k, first // 2)
    y = _times_central(x, k) if first % 2 else x
    values = [_central_read(x, y)]
    for n in range(first + 1, last + 1):
        if n % 2:
            y = _times_central(y, k)
        else:
            x = y
        values.append(_central_read(x, y))
    return values
