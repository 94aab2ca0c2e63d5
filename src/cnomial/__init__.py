"""Central (2k+1)-nomial coefficients by three independent routes.

M^(2k,n) is the coefficient of x^{kn} in (1 + x + ... + x^{2k})^n, the
largest entry of the row.  The package computes it (and any other
coefficient p_l of the row) three ways:

- the exact coefficient row by a four-term recurrence, cross-checked by
  a running-window convolution (:mod:`cnomial.exact`), the oracle;
- exact circulant-matrix powers, reading the trace or a shifted row
  (:mod:`cnomial.circulant`);
- a closed-form trigonometric sum over the circulant spectrum, evaluated
  in floating or fixed-point ball arithmetic and rounded back with a
  certified residual
  (:mod:`cnomial.spectral`).

:mod:`cnomial.oeis` ties the k = 1, 2, 3 sequences to their OEIS entries;
the ``cnomial`` console script exposes everything on the command line.
"""
from .circulant import (
    CirculantMatrix,
    build_central,
    build_shifted,
    central_via_trace,
    coefficient_via_shift,
    cyclic_permutation,
    identity,
    matrix_power,
    multiply,
    to_dense,
    trace,
)
from .exact import CoefficientTable, central_coefficient, expand_power
from .oeis import (
    OEIS_BY_K,
    BFileParseError,
    ComparisonReport,
    FetchError,
    SequenceIdError,
    SequenceRecord,
    compare,
    computed_sequence,
    fetch_bfile,
    fixture_for_k,
    registered_sequences,
)
from .params import Params
from .spectral import (
    DEFAULT_RESIDUAL_CAP,
    EIGENVALUE_METHODS,
    CertificationError,
    CertifiedInteger,
    EigenvalueSet,
    PrecisionPolicy,
    central_via_spectrum,
    coefficient_via_spectrum,
    dirichlet_kernel,
    eigenvalues,
    required_bits,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RESIDUAL_CAP",
    "EIGENVALUE_METHODS",
    "OEIS_BY_K",
    "BFileParseError",
    "CertificationError",
    "CertifiedInteger",
    "CirculantMatrix",
    "CoefficientTable",
    "ComparisonReport",
    "EigenvalueSet",
    "FetchError",
    "Params",
    "PrecisionPolicy",
    "SequenceIdError",
    "SequenceRecord",
    "build_central",
    "build_shifted",
    "central_coefficient",
    "central_via_spectrum",
    "central_via_trace",
    "coefficient_via_shift",
    "coefficient_via_spectrum",
    "compare",
    "computed_sequence",
    "cyclic_permutation",
    "dirichlet_kernel",
    "eigenvalues",
    "expand_power",
    "fetch_bfile",
    "fixture_for_k",
    "identity",
    "matrix_power",
    "multiply",
    "registered_sequences",
    "required_bits",
    "to_dense",
    "trace",
    "__version__",
]
