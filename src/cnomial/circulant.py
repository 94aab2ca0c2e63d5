"""Circulant-matrix route to (2k+1)-nomial coefficients.

A circulant is stored as its first row only; products are cyclic
convolutions of first rows, powers are exponentiation by squaring, and the
central coefficient falls out of the trace of the n-th power of the
symmetric shifted circulant (first-row ones at offsets -k..k mod N).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .params import Params

#: Largest dimension :func:`to_dense` will materialize; the dense form only
#: exists so tests can cross-check against naive matrix algebra.
DENSE_DIM_LIMIT = 64


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


def cyclic_permutation(dim: int) -> CirculantMatrix:
    """The basis circulant with a single 1 at offset 1 (offset 0 when dim=1)."""
    row = [0] * dim
    row[1 % dim] = 1
    return CirculantMatrix(dim, tuple(row))


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


def _convolve_cyclic(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Cyclic convolution of two equal-length exact integer rows (indices wrap mod N).

    Only nonzero entries take part, with the sparser operand on the outside:
    powers of a banded circulant are bands that fill the ring only at the
    end, so most products a dense sweep would form are with zero.
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
    """Exact n-th power by exponentiation by squaring; n=0 gives the identity."""
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    result = identity(a.dim)
    base = a
    e = n
    while e:
        if e & 1:
            result = multiply(result, base)
        e >>= 1
        if e:
            base = multiply(base, base)
    return result


def trace(a: CirculantMatrix) -> int:
    """dim * first_row[0]; every diagonal entry of a circulant is first_row[0]."""
    return a.dim * a.first_row[0]


def to_dense(a: CirculantMatrix, limit: int = DENSE_DIM_LIMIT) -> list[list[int]]:
    """Materialize the full matrix (tests only; guarded against large dims)."""
    if a.dim > limit:
        raise ValueError(f"refusing to materialize dim {a.dim} > {limit}")
    return [[a.first_row[(j - i) % a.dim] for j in range(a.dim)] for i in range(a.dim)]


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
def _half_power_rows(k: int, n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First rows of X = C_m^{floor(n/2)} and Y = X, or X C_m when n is odd."""
    shifted = build_shifted(Params(k, n), m)
    half = matrix_power(shifted, n // 2)
    other = multiply(half, shifted) if n % 2 else half
    return half.first_row, other.first_row


def coefficient_via_shift(params: Params, l: int, m: int | None = None) -> int:
    """Coefficient ``p_l`` read from the n-th power of a shifted circulant.

    The n-th power of the m-shifted circulant has first row
    ``b_j = p_{(j - n*m) mod N}``: the shift multiplies the whole row of
    coefficients by x^{n*m}, rotating it through the ring.  Reading offset
    ``(l + n*m) mod N`` therefore recovers ``p_l`` for any shift; the
    default shift is the central one ``m = N - k``, which parks the central
    coefficient on the diagonal.  As in :func:`central_via_trace`, the n-th
    power is never formed: the entry is read off the two half powers, which
    are cached per (k, n, m) for the other coefficients of the same row.
    """
    if not 0 <= l <= params.degree:
        raise ValueError(f"l must be in [0, {params.degree}], got {l}")
    n_dim = params.dim
    if m is None:
        m = (n_dim - params.k) % n_dim
    elif not 0 <= m < n_dim:
        raise ValueError(f"shift m must be in [0, {n_dim - 1}], got {m}")
    x, y = _half_power_rows(params.k, params.n, m)
    return _product_entry(x, y, (l + params.n * m) % n_dim)
