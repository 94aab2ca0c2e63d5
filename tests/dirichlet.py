"""The Dirichlet kernel: the unfolded reference the spectral route's ratios are checked against."""
import math


def dirichlet_kernel(k: int, theta: float) -> float:
    """D_k(theta) = sin((2k+1)theta/2) / sin(theta/2), with D_k(0) = 2k+1.

    Fourier partial-sum kernel; at theta = 2*pi*r/N it reproduces the
    circulant eigenvalue E_r, an unfolded check on the ratios of
    ``spectral._ratios``.
    """
    half = math.sin(theta / 2.0)
    if half == 0.0:
        return float(2 * k + 1)
    return math.sin((2 * k + 1) * theta / 2.0) / half
