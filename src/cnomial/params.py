"""Shared problem parameters for all computation routes."""
from __future__ import annotations

from typing import NamedTuple


class _ParamsFields(NamedTuple):
    k: int
    n: int


class Params(_ParamsFields):
    """Half-degree ``k`` and power ``n`` of the expansion ``(1 + x + ... + x^{2k})^n``.

    ``k >= 1`` so the polynomial has ``2k+1`` terms.  ``n >= 1`` is the
    interesting domain; ``n = 0`` is accepted as the identity case (the
    coefficient row collapses to ``[1]``), which lets sequences start at
    ``n = 0`` the way OEIS indexes them.  A named tuple: ``_replace``
    validates like the constructor.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> Params:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"k must be an integer, got {k!r}")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"n must be an integer, got {n!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return super().__new__(cls, k, n)

    @classmethod
    def _make(cls, iterable) -> Params:
        return cls(*iterable)

    @property
    def width(self) -> int:
        """Number of polynomial terms, ``2k + 1``."""
        return 2 * self.k + 1

    @property
    def degree(self) -> int:
        """Degree of the expanded power, ``2kn``."""
        return 2 * self.k * self.n

    @property
    def dim(self) -> int:
        """Circulant dimension ``N = 2kn + 1`` (odd; ``>= 3`` whenever ``n >= 1``)."""
        return 2 * self.k * self.n + 1
