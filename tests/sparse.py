"""Sparse circulant algebra: the reference the circulant route's steps are checked against.

A circulant is its first row; a product is the cyclic convolution of two
first rows, by a loop over their nonzero entries.  The route itself
powers windows of the central circulant in packed form and never builds
these matrices.
"""
from collections.abc import Sequence
from dataclasses import dataclass

from cnomial.params import Params


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
    block of k ones, and a trailing block of k ones: :func:`build_shifted`
    with ``m = N - k``, the matrix whose powers the route forms (see
    ``cnomial.circulant.coefficient_via_shift``).
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

