# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernel backend.

Cython twin of ``cnomial._kernels_py``.  The float kernels are kept
operation-for-operation identical to it: same libm calls, same evaluation
order, same compensation branches, so results agree bit for bit.  The
integer convolutions stay in exact Python object arithmetic (values
outgrow 64-bit machine words almost immediately), so they need only agree
by value; the win there is typed loop indexing.
"""

from libc.math cimport cos, fabs, pow, sin

# Closest double to pi, same value as math.pi.
cdef double PI = 3.141592653589793


def convolve_linear(list a, list b):
    """Schoolbook linear convolution of two exact integer coefficient rows."""
    cdef Py_ssize_t na = len(a)
    cdef Py_ssize_t nb = len(b)
    cdef Py_ssize_t i, j
    cdef list out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(nb):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def convolve_cyclic(list a, list b):
    """Cyclic convolution of two equal-length exact integer rows (indices wrap mod N)."""
    cdef Py_ssize_t n = len(a)
    cdef Py_ssize_t i, j, t
    cdef list out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n):
            t = i + j
            if t >= n:
                t -= n
            out[t] = out[t] + ai * b[j]
    return out


def eigenvalues_trig(long long k, long long dim):
    """Spectrum of the symmetric width-(2k+1) boolean circulant, sine-ratio form."""
    cdef long long m = 2 * k + 1
    cdef long long r1
    cdef double num, den
    cdef list out = [<double> m]
    for r1 in range(1, dim):
        num = sin(((m * r1) * PI) / dim)
        den = sin((r1 * PI) / dim)
        out.append(num / den)
    return out


def eigenvalues_cosine(long long k, long long dim):
    """Same spectrum via the cosine sum 1 + 2*sum_{l=1..k} cos(2pi(r-1)l/N)."""
    cdef long long r1, l
    cdef double acc
    cdef list out = [<double> (2 * k + 1)]
    for r1 in range(1, dim):
        acc = 1.0
        for l in range(1, k + 1):
            acc += 2.0 * cos(((2.0 * PI) * (r1 * l)) / dim)
        out.append(acc)
    return out


def eigenvalues_chebyshev(long long k, long long dim):
    """Same spectrum as U_{2k}(cos((r-1)pi/N)) by the three-term recurrence."""
    cdef long long r1, j
    cdef double x, u0, u1, tmp
    cdef list out = [<double> (2 * k + 1)]
    for r1 in range(1, dim):
        x = cos((r1 * PI) / dim)
        u0 = 1.0
        u1 = 2.0 * x
        for j in range(2, 2 * k + 1):
            tmp = (2.0 * x) * u1 - u0
            u0 = u1
            u1 = tmp
        out.append(u1)
    return out


def spectral_terms_central(long long k, long long n, long long dim):
    """Terms of (2k+1)^n + sum_{l=1..N-1} (sin((2k+1)l pi/N)/sin(l pi/N))^n."""
    cdef long long m = 2 * k + 1
    cdef long long l
    cdef double num, den
    cdef list out = [pow(<double> m, <double> n)]
    for l in range(1, dim):
        num = sin(((m * l) * PI) / dim)
        den = sin((l * PI) / dim)
        out.append(pow(num / den, <double> n))
    return out


def spectral_terms_coefficient(long long k, long long n, long long dim, long long l):
    """Terms of (2k+1)^n + sum_{r=1..N-1} E_{r+1}^n cos(2pi r l/N)."""
    cdef long long m = 2 * k + 1
    cdef long long r
    cdef double num, den, phase
    cdef list out = [pow(<double> m, <double> n)]
    for r in range(1, dim):
        num = sin(((m * r) * PI) / dim)
        den = sin((r * PI) / dim)
        phase = cos(((2.0 * PI) * ((r * l) % dim)) / dim)
        out.append(pow(num / den, <double> n) * phase)
    return out


def sum_plain(list terms):
    """Left-to-right double accumulation."""
    cdef double s = 0.0
    cdef double term
    for term in terms:
        s = s + term
    return s


def sum_abs(list terms):
    """Left-to-right accumulation of absolute values (for error bounds)."""
    cdef double s = 0.0
    cdef double term
    for term in terms:
        s = s + fabs(term)
    return s


def sum_compensated(list terms):
    """Left-to-right Neumaier-compensated accumulation."""
    cdef double s = 0.0
    cdef double c = 0.0
    cdef double t, term
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
    return s + c
