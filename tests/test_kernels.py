"""Kernel units and bit-for-bit parity between the two backends."""
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import _backend
from cnomial import _kernels_py as kp

HAS_COMPILED = "compiled" in _backend.available()
needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="compiled extension not built"
)

PARITY_CASES = [(1, 1), (1, 2), (1, 9), (2, 5), (3, 8), (4, 12), (2, 30)]


def naive_linear(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def naive_cyclic(a, b):
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % n] += ai * bj
    return out


def test_convolve_linear_example(backend):
    kern = _backend.active()
    assert kern.convolve_linear([1, 1, 1], [1, 1, 1]) == [1, 2, 3, 2, 1]


def test_convolve_cyclic_example(backend):
    kern = _backend.active()
    assert kern.convolve_cyclic([1, 1, 0, 0, 1], [1, 1, 0, 0, 1]) == [3, 2, 1, 1, 2]


@given(
    a=st.lists(st.integers(-99, 99), min_size=1, max_size=12),
    b=st.lists(st.integers(-99, 99), min_size=1, max_size=12),
)
@settings(max_examples=50, deadline=None)
def test_convolve_linear_fuzzed(a, b):
    for name in _backend.available():
        with _backend.select(name):
            assert _backend.active().convolve_linear(a, b) == naive_linear(a, b)


@given(
    data=st.data(),
    n=st.integers(1, 10),
)
@settings(max_examples=100, deadline=None)
def test_convolve_cyclic_fuzzed(data, n):
    # Mostly-zero rows, all-zero rows and single nonzeros reach the
    # zero-skipping and the choice of the sparser operand as the outer loop.
    entry = st.one_of(
        st.just(0), st.integers(-99, 99), st.integers(-(10**30), 10**30)
    )
    single = st.builds(
        lambda i, v: [v if j == i else 0 for j in range(n)],
        st.integers(0, n - 1),
        st.integers(-(10**30), 10**30),
    )
    ints = st.one_of(
        st.lists(entry, min_size=n, max_size=n), single, st.just([0] * n)
    )
    a, b = data.draw(ints), data.draw(ints)
    for name in _backend.available():
        with _backend.select(name):
            assert _backend.active().convolve_cyclic(a, b) == naive_cyclic(a, b)


def test_big_integers_survive_convolution(backend):
    kern = _backend.active()
    big = 10**40
    assert kern.convolve_linear([big, 1], [big, 1]) == [big * big, 2 * big, 1]


def test_compensated_beats_plain_on_cancellation(backend):
    kern = _backend.active()
    terms = [1e16, 1.0, -1e16]
    assert kern.sum_plain(terms) == 0.0
    assert kern.sum_compensated(terms) == 1.0


def test_sum_abs(backend):
    kern = _backend.active()
    assert kern.sum_abs([1.5, -2.5, 3.0]) == 7.0
    assert kern.sum_abs([]) == 0.0


@needs_compiled
@pytest.mark.parametrize("k, n", PARITY_CASES)
def test_term_parity(k, n):
    from cnomial import _kernels as kc

    dim = 2 * k * n + 1
    assert kc.spectral_terms_central(k, n, dim) == kp.spectral_terms_central(k, n, dim)
    for l in {0, 1, k * n, dim - 1}:
        assert kc.spectral_terms_coefficient(
            k, n, dim, l
        ) == kp.spectral_terms_coefficient(k, n, dim, l)


@needs_compiled
@pytest.mark.parametrize("k, n", PARITY_CASES)
def test_eigenvalue_parity(k, n):
    from cnomial import _kernels as kc

    dim = 2 * k * n + 1
    assert kc.eigenvalues_trig(k, dim) == kp.eigenvalues_trig(k, dim)
    assert kc.eigenvalues_cosine(k, dim) == kp.eigenvalues_cosine(k, dim)
    assert kc.eigenvalues_chebyshev(k, dim) == kp.eigenvalues_chebyshev(k, dim)


@needs_compiled
@pytest.mark.parametrize("k, n", PARITY_CASES)
def test_sum_parity(k, n):
    from cnomial import _kernels as kc

    dim = 2 * k * n + 1
    terms = kp.spectral_terms_central(k, n, dim)
    assert kc.sum_plain(terms) == kp.sum_plain(terms)
    assert kc.sum_compensated(terms) == kp.sum_compensated(terms)
    assert kc.sum_abs(terms) == kp.sum_abs(terms)


def test_power_overflow_saturates_to_inf(backend):
    # libm pow never raises; the python twin must saturate the same way so
    # callers can escalate precision on a non-finite sum.
    kern = _backend.active()
    terms = kern.spectral_terms_central(1, 700, 5)
    assert terms[0] == math.inf
    assert all(not math.isnan(t) for t in terms)


@needs_compiled
def test_power_overflow_parity():
    from cnomial import _kernels as kc

    assert kc.spectral_terms_central(1, 700, 5) == kp.spectral_terms_central(1, 700, 5)
    assert kc.spectral_terms_coefficient(
        1, 700, 5, 2
    ) == kp.spectral_terms_coefficient(1, 700, 5, 2)


def test_select_restores_previous_backend():
    before = _backend.active_name()
    with _backend.select("python"):
        assert _backend.active_name() == "python"
    assert _backend.active_name() == before


def test_select_unknown_backend():
    with pytest.raises(ValueError):
        with _backend.select("gpu"):
            pass


def test_environment_forces_python_backend():
    script = (
        "from cnomial import _backend; "
        "print(_backend.active_name(), _backend.available())"
    )
    # The child must import the same cnomial as this process, installed or
    # not, so the directory holding that package leads its PYTHONPATH.
    package_dir = os.path.dirname(os.path.abspath(_backend.__file__))
    package_root = os.path.dirname(package_dir)
    env = dict(os.environ, CNOMIAL_BACKEND="python")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("python")
    assert "compiled" not in out
