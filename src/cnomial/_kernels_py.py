"""Pure-Python kernel backend.

Reference implementation of the hot loops: exact integer convolutions,
double-precision spectral term generation, and the two summation strategies.
``cnomial._kernels`` is the compiled twin.  The integer convolutions are
exact, so the two backends need only agree on their values.  The float
kernels are kept operation-for-operation identical so that their results
match bit for bit (same libm calls, same evaluation order, no
reassociation); edit those in both files together.
"""
from __future__ import annotations

from math import cos, inf, pi, sin


def _pow(base: float, n: int) -> float:
    """``base ** n`` with C ``pow()`` overflow semantics: saturate to ±inf.

    CPython raises OverflowError where libm returns ±HUGE_VAL; saturating
    keeps the backends interchangeable and lets callers treat a non-finite
    sum as "escalate precision" rather than a crash.
    """
    try:
        return base**n
    except OverflowError:
        return -inf if (base < 0.0 and n % 2) else inf


def convolve_linear(a: list, b: list) -> list:
    """Schoolbook linear convolution of two exact integer coefficient rows."""
    na = len(a)
    nb = len(b)
    out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(nb):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def convolve_cyclic(a: list, b: list) -> list:
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


def eigenvalues_trig(k: int, dim: int) -> list:
    """Spectrum of the symmetric width-(2k+1) boolean circulant, sine-ratio form.

    Entry ``r`` (1-based, stored 0-based) is sin((2k+1)(r-1)pi/N) divided by
    sin((r-1)pi/N); the r=1 eigenvalue is pinned to 2k+1 instead of being
    evaluated as 0/0.
    """
    m = 2 * k + 1
    out = [float(m)]
    for r1 in range(1, dim):
        num = sin(((m * r1) * pi) / dim)
        den = sin((r1 * pi) / dim)
        out.append(num / den)
    return out


def eigenvalues_cosine(k: int, dim: int) -> list:
    """Same spectrum via the cosine sum 1 + 2*sum_{l=1..k} cos(2pi(r-1)l/N)."""
    out = [float(2 * k + 1)]
    for r1 in range(1, dim):
        acc = 1.0
        for l in range(1, k + 1):
            acc += 2.0 * cos(((2.0 * pi) * (r1 * l)) / dim)
        out.append(acc)
    return out


def eigenvalues_chebyshev(k: int, dim: int) -> list:
    """Same spectrum as U_{2k}(cos((r-1)pi/N)) by the three-term recurrence."""
    out = [float(2 * k + 1)]
    for r1 in range(1, dim):
        x = cos((r1 * pi) / dim)
        u0 = 1.0
        u1 = 2.0 * x
        for _ in range(2, 2 * k + 1):
            u0, u1 = u1, (2.0 * x) * u1 - u0
        out.append(u1)
    return out


def spectral_terms_central(k: int, n: int, dim: int) -> list:
    """Terms of (2k+1)^n + sum_{l=1..N-1} (sin((2k+1)l pi/N)/sin(l pi/N))^n.

    The power term comes first, then l ascending, so every summation
    strategy sees the same deterministic order.
    """
    m = 2 * k + 1
    out = [_pow(float(m), n)]
    for l in range(1, dim):
        num = sin(((m * l) * pi) / dim)
        den = sin((l * pi) / dim)
        out.append(_pow(num / den, n))
    return out


def spectral_terms_coefficient(k: int, n: int, dim: int, l: int) -> list:
    """Terms of (2k+1)^n + sum_{r=1..N-1} E_{r+1}^n cos(2pi r l/N).

    The cosine phase is the real reduction of the circulant element formula
    (conjugate eigenvalue pairs cancel the imaginary parts); the phase
    argument is reduced exactly as (r*l) mod N before multiplying by 2pi/N.
    """
    m = 2 * k + 1
    out = [_pow(float(m), n)]
    for r in range(1, dim):
        num = sin(((m * r) * pi) / dim)
        den = sin((r * pi) / dim)
        phase = cos(((2.0 * pi) * ((r * l) % dim)) / dim)
        out.append(_pow(num / den, n) * phase)
    return out


def sum_plain(terms: list) -> float:
    """Left-to-right double accumulation."""
    s = 0.0
    for term in terms:
        s = s + term
    return s


def sum_abs(terms: list) -> float:
    """Left-to-right accumulation of absolute values (for error bounds)."""
    s = 0.0
    for term in terms:
        s = s + abs(term)
    return s


def sum_compensated(terms: list) -> float:
    """Left-to-right Neumaier-compensated accumulation.

    Tracks the rounding error of every addition in a second double and
    re-adds it once at the end, shrinking the error bound from O(m*eps)
    toward O(eps).
    """
    s = 0.0
    c = 0.0
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
    return s + c
