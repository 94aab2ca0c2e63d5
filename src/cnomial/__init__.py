"""Central (2k+1)-nomial coefficients by three independent routes.

M^(2k,n) is the coefficient of x^{kn} in (1 + x + ... + x^{2k})^n, the
largest entry of the row.  The package computes any coefficient p_l of
the row three ways, one function each, and the central one is l = kn:

- :func:`coefficient`, the exact recurrence stopped at p_l, and
  :func:`expand_power`, the whole row, cross-checked by a running-window
  convolution (:mod:`cnomial.exact`), the oracle;
- :func:`coefficient_via_shift`, read off exact circulant-matrix powers;
  at l = kn that is the trace (:mod:`cnomial.circulant`);
- :func:`coefficient_via_spectrum`, a closed-form trigonometric sum over
  the circulant spectrum, evaluated in floating or fixed-point ball
  arithmetic and rounded back with a certified residual
  (:mod:`cnomial.spectral`).

:mod:`cnomial.oeis` ties the k = 1, 2, 3 sequences to their OEIS entries;
it is imported on first use of one of its names here, so a process that
never compares against OEIS does not load it.  The ``cnomial`` console
script exposes everything on the command line.
"""
from .circulant import coefficient_via_shift
from .exact import coefficient, expand_power
from .params import Params
from .spectral import (
    CertificationError,
    CertifiedInteger,
    PrecisionPolicy,
    coefficient_via_spectrum,
)

__version__ = "0.1.0"

#: Names :mod:`cnomial.oeis` defines and the package exports, bound on first access.
_OEIS_NAMES = frozenset({
    "OEIS_BY_K",
    "BFileParseError",
    "ComparisonReport",
    "FetchError",
    "SequenceIdError",
    "SequenceRecord",
    "compare",
    "fetch_bfile",
    "fixture_for_k",
})

__all__ = [
    "OEIS_BY_K",
    "BFileParseError",
    "CertificationError",
    "CertifiedInteger",
    "ComparisonReport",
    "FetchError",
    "Params",
    "PrecisionPolicy",
    "SequenceIdError",
    "SequenceRecord",
    "coefficient",
    "coefficient_via_shift",
    "coefficient_via_spectrum",
    "compare",
    "expand_power",
    "fetch_bfile",
    "fixture_for_k",
    "__version__",
]


def __getattr__(name: str) -> object:
    if name in _OEIS_NAMES:
        from . import oeis

        value = globals()[name] = getattr(oeis, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
