"""Units of the hot kernels, each in the module of the route that calls it."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st
from sparse import _convolve_cyclic

from cnomial import exact
from cnomial.params import Params
from cnomial.spectral import _double_spectrum


def naive_cyclic(a, b):
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % n] += ai * bj
    return out


def test_times_ones_example():
    assert exact._times_ones([1, 1, 1], 3) == [1, 2, 3, 2, 1]


def test_convolve_cyclic_example():
    assert _convolve_cyclic([1, 1, 0, 0, 1], [1, 1, 0, 0, 1]) == [3, 2, 1, 1, 2]


def test_central_coefficient_stops_at_kn(monkeypatch):
    built = []
    true_prefix = exact._recurrence_prefix

    def recorded(params, last):
        prefix = true_prefix(params, last)
        built.append(len(prefix))
        return prefix

    monkeypatch.setattr(exact, "_recurrence_prefix", recorded)
    for k in range(1, 6):
        for n in range(0, 25):
            p = Params(k, n)
            built.clear()
            central = exact.coefficient(p, k * n)
            assert built == [k * n + 1], (k, n)
            assert central == exact.expand_power(p)[k * n], (k, n)


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
    assert _convolve_cyclic(a, b) == naive_cyclic(a, b)


def test_big_integers_survive_recurrence():
    # Central trinomial coefficients are sum_j C(n, 2j) C(2j, j); at n = 2000
    # they have 953 digits, and every step's exact division is on big ints.
    n = 2000
    closed = sum(math.comb(n, 2 * j) * math.comb(2 * j, j) for j in range(n // 2 + 1))
    assert exact.coefficient(Params(1, n), n) == closed


def test_sum_abs():
    # At (1, 3) on 7 points E_2 < 0, so an odd power is a negative term:
    # the mass adds its magnitude.
    terms, mass = _double_spectrum(Params(1, 3), 7)
    assert min(terms) < 0.0
    assert mass == sum(abs(t) for t in terms)
