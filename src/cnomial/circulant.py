"""Circulant-matrix route to (2k+1)-nomial coefficients.

A circulant is stored as its first row only; products are cyclic
convolutions of first rows, powers are exponentiation by squaring, and the
central coefficient falls out of the trace of the n-th power of the
symmetric shifted circulant (first-row ones at offsets -k..k mod N).
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from functools import lru_cache
from operator import mul

from .params import Params

#: Narrowest window of nonzeros that :func:`matrix_power` squares by one
#: packed decimal multiply; narrower windows square by the sparse loop of
#: :func:`_convolve_cyclic`.  The two cost the same at widths of 20 to 25.
PACKED_MIN_WIDTH = 24

#: Integer products in this context are exact at any size: nothing rounds.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class CirculantMatrix:
    """Circulant over exact integers, determined by its first row.

    The full matrix entry ``(i, j)`` is ``first_row[(j - i) mod dim]``; rows
    are successive right-rotations of the first.
    """

    dim: int
    first_row: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.first_row) != self.dim:
            raise ValueError(
                f"first_row has {len(self.first_row)} entries, expected {self.dim}"
            )


def identity(dim: int) -> CirculantMatrix:
    return CirculantMatrix(dim, (1,) + (0,) * (dim - 1))


def build_shifted(params: Params, m: int) -> CirculantMatrix:
    """Boolean circulant with first-row ones at offsets ``{m, ..., m+2k} mod N``.

    Multiplying the width-(2k+1) block circulant by ``x^m`` in the
    polynomial picture; offsets that collide mod N (only possible in the
    degenerate n=0 case) are marked once, keeping the matrix boolean.
    """
    n_dim = params.dim
    if not 0 <= m < n_dim:
        raise ValueError(f"shift m must be in [0, {n_dim - 1}], got {m}")
    row = [0] * n_dim
    for offset in range(m, m + params.width):
        row[offset % n_dim] = 1
    return CirculantMatrix(n_dim, tuple(row))


def build_central(params: Params) -> CirculantMatrix:
    """The symmetric circulant whose n-th power carries M^(2k,n) on the diagonal.

    First-row ones sit at offsets ``{-k, ..., k} mod N``: a leading 1, a
    block of k ones, and a trailing block of k ones.  Equivalent to
    :func:`build_shifted` with ``m = N - k`` (the matrix actually used by
    the spectral route; see the trace/shift bookkeeping notes on
    :func:`coefficient_via_shift`).
    """
    return build_shifted(params, (params.dim - params.k) % params.dim)


def multiply(a: CirculantMatrix, b: CirculantMatrix) -> CirculantMatrix:
    """Product of two circulants: the cyclic convolution of their first rows."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    return CirculantMatrix(a.dim, tuple(_convolve_cyclic(a.first_row, b.first_row)))


def _convolve_cyclic(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Cyclic convolution of two equal-length exact integer rows (indices wrap mod N).

    Only nonzero entries take part, with the sparser operand on the outside,
    so rows that are mostly zero cost little.
    """
    n = len(a)
    outer = [(i, x) for i, x in enumerate(a) if x]
    inner = [(j, y) for j, y in enumerate(b) if y]
    if len(outer) > len(inner):
        outer, inner = inner, outer
    out = [0] * n
    for i, x in outer:
        for j, y in inner:
            t = i + j
            if t >= n:
                t -= n
            out[t] += x * y
    return out


def matrix_power(a: CirculantMatrix, n: int) -> CirculantMatrix:
    """Exact n-th power of a nonnegative circulant; n=0 gives the identity.

    Left-to-right binary powering from ``a``: each step squares the running
    power and, on a set bit of n, multiplies it by ``a`` (:func:`_step`).
    The nonzeros of ``a`` lie in a cyclic window of width w starting at s,
    so those of aᵉ lie in the window of width min(N, e(w-1)+1) starting at
    e·s mod N: only that window is kept, and it is tracked, never searched
    for.  Wide windows step by one packed multiply whose fields must not
    carry into each other, so the entries must be nonnegative, as every
    power of a boolean circulant is; a negative one raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    row = a.first_row
    if min(row) < 0:
        raise ValueError("matrix_power takes nonnegative first rows")
    dim = a.dim
    if n == 0:
        return identity(dim)
    start, width = _window(row)
    if width == 0:
        return a
    base = [row[(start + i) % dim] for i in range(width)]
    base_sum = sum(base)
    # The running power is aᵉ, its window ``values``; its entries sum to
    # ``total``, since row sums multiply under cyclic convolution.
    values, e, total = base, 1, base_sum
    for bit in bin(n)[3:]:
        times_a = bit == "1"
        total = total * total * (base_sum if times_a else 1)
        values = _step(values, base if times_a else None, total, dim)
        e = 2 * e + times_a
    out = [0] * dim
    offset = e * start % dim
    for i, value in enumerate(values):
        out[(offset + i) % dim] = value
    return CirculantMatrix(dim, tuple(out))


def _window(row: tuple[int, ...]) -> tuple[int, int]:
    """(s, w): the shortest cyclic window s, s+1, ..., s+w-1 (mod N) holding
    every nonzero of ``row``; (0, 0) for the zero row.

    It is the complement of the longest cyclic run of zeros.
    """
    nonzero = [i for i, x in enumerate(row) if x]
    if not nonzero:
        return 0, 0
    dim = len(row)
    gap, start = dim - nonzero[-1] + nonzero[0], nonzero[0]
    for i, j in zip(nonzero, nonzero[1:]):
        if j - i > gap:
            gap, start = j - i, j
    return start, dim - gap + 1


def _step(values: list[int], other: list[int] | None, bound: int, dim: int) -> list[int]:
    """The window of X², or of X² A when ``other`` is given, folded mod ``dim``.

    ``values`` and ``other`` are the windows of X and A, and ``bound`` is at
    least every entry of the product.  The product's window starts at twice
    the start of X's (plus A's start) and has ``count`` fields; past ``dim``
    fields it wraps round the ring and is folded onto ``dim``.

    Below :data:`PACKED_MIN_WIDTH` the fields come from the sparse loop.
    Above it, each window is packed as fixed-width decimal fields into one
    :class:`~decimal.Decimal`, and one multiply (a number-theoretic
    transform inside libmpdec for large operands) forms every field at
    once.  The fields are wide enough to hold ``bound``, so with
    nonnegative entries no carry crosses from one into the next.
    """
    count = 2 * len(values) - 1 + (len(other) - 1 if other is not None else 0)
    if len(values) < PACKED_MIN_WIDTH:
        # Padded to ``count``, the cyclic convolution never wraps.
        padded = values + [0] * (count - len(values))
        fields = _convolve_cyclic(padded, padded)
        if other is not None:
            fields = _convolve_cyclic(fields, other + [0] * (count - len(other)))
    else:
        digits = bound.bit_length() * 30103 // 100000 + 1  # 10**digits > bound
        packed = _pack(values, digits)
        product = _EXACT.multiply(packed, packed)
        if other is not None:
            product = _EXACT.multiply(product, _pack(other, digits))
        fields = _unpack(product, digits, count)
    if count <= dim:
        return fields
    out = fields[:dim]
    for t in range(dim, count):
        out[t % dim] += fields[t]
    return out


def _pack(values: list[int], digits: int) -> Decimal:
    """sum values[i] * 10**(digits*i), each value below 10**digits.

    Conversions go through :class:`~decimal.Decimal`, to which CPython's
    int/str digit limit does not apply.
    """
    return Decimal("".join(str(Decimal(v)).zfill(digits) for v in reversed(values)))


def _unpack(packed: Decimal, digits: int, count: int) -> list[int]:
    """The ``count`` fields of ``digits`` digits of ``packed``, lowest first.

    ``int`` parses a field directly within CPython's int/str digit limit
    (0: none, as on Pythons before 3.10.7, which have no limit); a wider
    field goes through :class:`~decimal.Decimal`.
    """
    text = str(packed).zfill(digits * count)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    parse = int if not 0 < limit < digits else lambda field: int(Decimal(field))
    return [parse(text[i : i + digits]) for i in range(len(text) - digits, -1, -digits)]


def central_via_trace(params: Params) -> int:
    """M^(2k,n) as trace of the n-th power of the central circulant, over N.

    Every diagonal entry of a circulant equals its (0, 0) entry, so
    Tr(C^n) / N is the (0, 0) entry of C^n.  The n-th power is never
    formed: with X = C^{floor(n/2)} and Y = X, or Y = X C when n is odd (a
    cheap product, C having 2k+1 nonzeros), it is entry 0 of the first row
    of X Y.
    """
    central = build_central(params)
    half = matrix_power(central, params.n // 2)
    other = multiply(half, central) if params.n % 2 else half
    return _product_entry(half.first_row, other.first_row, 0)


def _product_entry(x: tuple[int, ...], y: tuple[int, ...], t: int) -> int:
    """Entry t of the first row of X Y, from the first rows of X and Y.

    sum_j x_j * y_{(t - j) mod N}: one row of the cyclic convolution, so the
    product itself is never formed.
    """
    return sum(map(mul, x, y[t::-1] + y[:t:-1]))


@lru_cache(maxsize=256)
def _half_power_rows(k: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First rows of X = C^{floor(n/2)} and Y = X, or X C when n is odd,
    for the central circulant C of (k, n)."""
    central = build_central(Params(k, n))
    half = matrix_power(central, n // 2)
    other = multiply(half, central) if n % 2 else half
    return half.first_row, other.first_row


def coefficient_via_shift(params: Params, l: int) -> int:
    """Coefficient ``p_l`` read from the n-th power of the central circulant.

    The n-th power of the m-shifted circulant has first row
    ``b_j = p_{(j - n*m) mod N}``: the shift multiplies the whole row of
    coefficients by x^{n*m}, rotating it through the ring.  The central
    circulant is the shift ``m = N - k``, so ``p_l`` sits at offset
    ``(l - kn) mod N``.  As in :func:`central_via_trace`, the n-th power is
    never formed: the entry is read off the two half powers, which are
    cached per (k, n) for the other coefficients of the same row.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    x, y = _half_power_rows(params.k, params.n)
    return _product_entry(x, y, (l - params.k * params.n) % params.dim)
