"""Circulant construction, powers, trace extraction, shift bookkeeping."""
import pytest
from dense import dense_power, dense_product, to_dense
from hypothesis import given, settings
from hypothesis import strategies as st
from sparse import (
    CirculantMatrix,
    _convolve_cyclic,
    build_central,
    build_shifted,
    identity,
    multiply,
)

from cnomial import Params, coefficient, expand_power
from cnomial import circulant, exact
from cnomial.circulant import coefficient_via_shift, matrix_power


def trace(a):
    """dim * first_row[0]: every diagonal entry of a circulant is first_row[0]."""
    return a.dim * a.first_row[0]


def cyclic_permutation(dim):
    """The basis circulant with a single 1 at offset 1 (offset 0 when dim=1)."""
    row = [0] * dim
    row[1 % dim] = 1
    return CirculantMatrix(dim, tuple(row))


def rotate(row, by):
    by %= len(row)
    return row[-by:] + row[:-by] if by else row


def test_build_shifted_all_ones_when_width_equals_dim():
    assert build_shifted(Params(1, 1), 0).first_row == (1, 1, 1)


def test_build_shifted_zero_shift():
    assert build_shifted(Params(1, 2), 0).first_row == (1, 1, 1, 0, 0)


def test_build_shifted_wraps():
    # offsets {4,5,6} mod 5 = {4,0,1}
    assert build_shifted(Params(1, 2), 4).first_row == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("m", [-1, 5, 99])
def test_build_shifted_range_error(m):
    with pytest.raises(ValueError):
        build_shifted(Params(1, 2), m)


def test_build_central_rows():
    assert build_central(Params(1, 2)).first_row == (1, 1, 0, 0, 1)
    assert build_central(Params(2, 1)).first_row == (1, 1, 1, 1, 1)
    assert build_central(Params(2, 2)).first_row == (1, 1, 1, 0, 0, 0, 0, 1, 1)


def test_build_central_is_symmetric():
    for k in range(1, 5):
        for n in range(1, 8):
            row = build_central(Params(k, n)).first_row
            # symmetric circulant: row[j] == row[-j mod N]
            assert all(row[j] == row[-j % len(row)] for j in range(len(row)))
            assert sum(row) == 2 * k + 1


def test_matrix_power_zero_is_identity():
    assert matrix_power(Params(1, 2), 0) == (1, 0, 0, 0, 0)


def test_matrix_power_square_no_wraparound():
    # C² of (1, 3) on 7 points: the window of 5 entries from -2 fits the ring.
    assert matrix_power(Params(1, 3), 2) == (3, 2, 1, 0, 0, 1, 2)


def test_matrix_power_square_with_wraparound():
    # C² of (1, 2) on 5 points: the window of 5 entries from -2 fills the ring.
    assert matrix_power(Params(1, 2), 2) == (3, 2, 1, 1, 2)


def test_matrix_power_negative_rejected():
    with pytest.raises(ValueError):
        matrix_power(Params(1, 1), -1)


def power_by_products(a, e):
    """aᵉ by e products through the sparse loop: the kernel's reference."""
    result = identity(a.dim)
    for _ in range(e):
        result = multiply(result, a)
    return result


def windowed_row(data, dim, widths):
    """(row, start, width): a nonnegative row, zero outside a cyclic window
    that may wrap past index 0 and hold zeros inside; the width is drawn
    from ``widths``."""
    width = data.draw(widths)
    start = data.draw(st.integers(0, dim - 1))
    entry = st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 10**40))
    row = [0] * dim
    for i, x in enumerate(data.draw(st.lists(entry, min_size=width, max_size=width))):
        row[(start + i) % dim] = x
    return row, start, width


#: DECIMAL_MIN_BITS values that force every step onto one kernel.
KERNELS = {"bytes": float("inf"), "decimal": 0}

#: POW_MAX_BITS values that power every bit of e by one pow, the leading
#: few, or none.
PREFIXES = {"pow": float("inf"), "mixed": 2**10, "steps": 0}


def placed(fields, start, dim):
    """The first row holding ``fields`` from ``start`` on, mod ``dim``."""
    assert len(fields) <= dim
    row = [0] * dim
    for i, value in enumerate(fields):
        row[(start + i) % dim] = value
    return row


@pytest.mark.parametrize("kernel", list(KERNELS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_step_matches_cyclic_convolution(kernel, data):
    # The squaring step X² against the full-row convolution, on each
    # kernel, for palindromic windows, as every window of a power of C is,
    # that may hold zeros and wrap past index 0, on rings that hold the
    # square's window.
    entry = st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 10**40))
    half = data.draw(st.lists(entry, min_size=1, max_size=18))
    values = half + half[-2::-1]
    dim = data.draw(st.integers(2 * len(values) - 1, 72))
    start = data.draw(st.integers(0, dim - 1))
    x = placed(values, start, dim)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circulant, "DECIMAL_MIN_BITS", KERNELS[kernel])
        fields = circulant._square(values, sum(x) ** 2)
    assert placed(fields, 2 * start, dim) == _convolve_cyclic(x, x)


@given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_times_central_matches_multiply(data, k, n):
    # X C as a running-window sum against the sparse loop, for windows of
    # X that stay inside the ring or wrap past index 0, up to the widest
    # whose X C window still fits the ring.
    central = build_central(Params(k, n))
    dim = central.dim
    x, xs, xw = windowed_row(data, dim, st.integers(1, dim - 2 * k))
    values = [x[(xs + i) % dim] for i in range(xw)]
    fields = circulant._times_central(values, k)
    assert placed(fields, xs - k, dim) == list(
        multiply(CirculantMatrix(dim, tuple(x)), central).first_row
    )


@pytest.mark.parametrize("k", range(1, 6))
def test_packed_odd_step_matches_multiply(k):
    # Y = X C for odd n, X = C^{floor(n/2)}: the running-window odd step
    # of the half powers against the sparse loop of ``multiply``.
    for n in range(1, 42, 2):
        p = Params(k, n)
        half = CirculantMatrix(p.dim, matrix_power(p, n // 2))
        x, y = circulant._half_power_windows(k, n)
        assert tuple(placed(x, -k * (n // 2), p.dim)) == half.first_row, (k, n)
        odd = multiply(half, build_central(p)).first_row
        assert tuple(placed(y, -k * (n // 2 + 1), p.dim)) == odd, (k, n)


def test_half_power_windows_share_the_cached_window():
    # X is the window cache's own tuple, and Y is X itself at even n.
    for k, n in [(1, 0), (2, 7), (3, 10), (4, 33)]:
        x, y = circulant._half_power_windows(k, n)
        assert x is circulant._window(k, n // 2), (k, n)
        assert (y is x) == (n % 2 == 0), (k, n)


@pytest.mark.parametrize("kernel", list(KERNELS))
@given(half=st.lists(st.integers(0, 10**40), min_size=2, max_size=10))
@settings(max_examples=40, deadline=None)
def test_palindromic_square_reads_half(kernel, half):
    # A palindromic window's square is read by its lowest w fields and
    # mirrored: against the full convolution on rings that its 2w-1 fields
    # fill exactly or with room to spare, on each kernel.
    values = half + half[-2::-1]
    dims = range(2 * len(values) - 1, 2 * len(values) + 2)
    mirrored = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circulant, "DECIMAL_MIN_BITS", KERNELS[kernel])
        patch.setattr(circulant, "_mirrored", lambda low: mirrored.append(low) or low + low[-2::-1])
        for dim in dims:
            start = dim // 3
            fields = circulant._square(values, sum(values) ** 2)
            row = placed(values, start, dim)
            assert placed(fields, 2 * start, dim) == _convolve_cyclic(row, row), dim
    assert len(mirrored) == len(dims)
    assert all(len(low) == len(values) for low in mirrored)


def decimal_steps(monkeypatch):
    """Record each decimal unpack; the list's length is the number of decimal steps."""
    calls = []
    unpack = circulant._unpack

    def recording_unpack(packed, digits, count):
        calls.append(count)
        return unpack(packed, digits, count)

    monkeypatch.setattr(circulant, "_unpack", recording_unpack)
    return calls


def test_matrix_power_matches_products(monkeypatch):
    # The known window through every step, for every e up to n, where
    # 2ke+1 fills the ring; the leading bits of e by one pow, some of
    # them, or none; the windows cached per (k, e) are dropped when the
    # limit changes.  Past n the power is refused.
    for prefix, limit in PREFIXES.items():
        monkeypatch.setattr(circulant, "POW_MAX_BITS", limit)
        circulant._window.cache_clear()
        for k in range(1, 6):
            for n in range(1, 9):
                p = Params(k, n)
                central = build_central(p)
                for e in range(n + 1):
                    expected = power_by_products(central, e).first_row
                    assert matrix_power(p, e) == expected, (prefix, k, n, e)
                with pytest.raises(ValueError):
                    matrix_power(p, n + 1)


def test_matrix_power_beyond_the_digit_limit(monkeypatch):
    # A square with fields of about 4400 digits, past CPython's 4300-digit
    # int/str limit, large enough for the decimal kernel; its window of 49
    # fields wraps past index 0 of a ring of 60 points.
    steps = decimal_steps(monkeypatch)
    dim = 60
    half = [10**2200 + i for i in range(13)]
    values = half + half[-2::-1]
    fields = circulant._square(values, sum(values) ** 2)
    assert steps
    assert max(fields).bit_length() > 4300 * 3.32
    row = placed(values, 20, dim)
    assert placed(fields, 40, dim) == _convolve_cyclic(row, row)


def test_packed_steps_without_a_digit_limit(monkeypatch):
    # Pythons before 3.10.7 have no int/str digit limit and no
    # sys.get_int_max_str_digits: the decimal steps parse every field by
    # int.  At (3, 40) every product is small, so the decimal kernel is forced.
    monkeypatch.delattr(circulant.sys, "get_int_max_str_digits")
    monkeypatch.setattr(circulant, "DECIMAL_MIN_BITS", 0)
    steps = decimal_steps(monkeypatch)
    p = Params(3, 40)
    assert coefficient_via_shift(p, p.k * p.n) == coefficient(p, p.k * p.n)
    assert steps


def test_trace_identity():
    assert trace(identity(5)) == 5


def test_trace_of_squared_central():
    assert trace(CirculantMatrix(5, (3, 2, 1, 1, 2))) == 15


def test_trace_all_ones():
    assert trace(CirculantMatrix(3, (1, 1, 1))) == 3


def test_central_via_trace_examples():
    assert coefficient_via_shift(Params(1, 2), 2) == 3
    assert coefficient_via_shift(Params(1, 1), 1) == 1
    assert coefficient_via_shift(Params(2, 2), 4) == 5


def test_central_via_trace_equals_oracle_on_grid():
    # The half-power trace against the full n-th power, both parities of n.
    for k in range(1, 5):
        for n in range(0, 31):
            p = Params(k, n)
            full = trace(CirculantMatrix(p.dim, matrix_power(p, n))) // p.dim
            assert coefficient_via_shift(p, k * n) == full == coefficient(p, k * n), (k, n)


def test_circulant_row_on_grid():
    # C^n has first row b_j = p_{(j + kn) mod N}: the exact row rotated by kn.
    # At these sizes every step runs on the binary kernel.
    for k in range(1, 5):
        for n in range(0, 41):
            p = Params(k, n)
            row = expand_power(p)
            rotated = tuple(row[(j + k * n) % p.dim] for j in range(p.dim))
            assert matrix_power(p, n) == rotated, (k, n)


def test_trace_route_in_target_regime():
    # Sizes where the top squarings run on the decimal kernel, the others
    # on the binary one.
    for k, n in [(1, 1600), (3, 800), (10, 400)]:
        p = Params(k, n)
        assert coefficient_via_shift(p, k * n) == coefficient(p, k * n), (k, n)
    p = Params(10, 200)
    row = expand_power(p)
    try:
        for l in (3, 1234, 3100):
            assert coefficient_via_shift(p, l) == row[l], l
    finally:
        circulant._half_power_windows.cache_clear()


@pytest.mark.parametrize("k", range(1, 6))
def test_central_run_equals_the_centre_of_each_n(k):
    # Every run of 1-12 n from 0-40: odd and even starts, and runs that
    # cross from one half power e to the next, one product each.
    centres = [coefficient_via_shift(Params(k, n), k * n) for n in range(52)]
    for first in range(41):
        for count in range(1, 13):
            run = circulant.central_run(k, first, first + count - 1)
            assert run == centres[first : first + count], (first, count)


def test_the_conv_and_trace_runs_agree():
    assert circulant.central_run(1, 0, 300) == exact.central_run(1, 0, 300)


def test_coefficient_via_shift_examples():
    assert coefficient_via_shift(Params(1, 2), 2) == 3
    assert coefficient_via_shift(Params(1, 2), 0) == 1
    assert coefficient_via_shift(Params(2, 2), 3) == 4


def test_coefficient_via_shift_full_rows():
    # Every coefficient by the read off the two half-power windows, the
    # central one by the palindromic half read, against the exact row.
    for k in range(1, 6):
        for n in range(41):
            p = Params(k, n)
            row = expand_power(p)
            for l in range(p.degree + 1):
                assert coefficient_via_shift(p, l) == row[l], (k, n, l)


def test_the_centre_half_read_equals_the_full_read():
    # At l = kn the route reads half the products of the palindromic
    # windows; the full aligned-slice read of the same windows, and the
    # exact row, give the same entry: n odd and even, and n = 0.
    for k in range(1, 6):
        for n in range(41):
            p = Params(k, n)
            x, y = circulant._half_power_windows(k, n)
            c = len(y) - 1 - k * n
            full = sum(x[j] * y[j + c] for j in range(max(0, -c), len(x)))
            assert coefficient_via_shift(p, k * n) == full == expand_power(p)[k * n], (k, n)


def test_coefficient_via_shift_any_shift():
    # the read-back offset (l + n*m) mod N undoes whatever shift built the
    # matrix; the route reads the central shift m = N - k at (l - kn) mod N
    for p in (Params(2, 3), Params(2, 4), Params(1, 5)):
        row = expand_power(p)
        for m in (0, 1, p.k, p.dim - p.k, p.dim - 1):
            power = power_by_products(build_shifted(p, m), p.n).first_row
            for l in range(p.degree + 1):
                assert power[(l + p.n * m) % p.dim] == row[l], (p, m, l)


def test_coefficient_via_shift_never_forms_full_power(monkeypatch):
    # One entry of C^n is one entry of the product of the two half powers'
    # windows; the full power, whose last squaring costs the most, is never
    # formed.
    exponents = []
    window = circulant._window

    def recording_window(k, e):
        exponents.append(e)
        return window(k, e)

    monkeypatch.setattr(circulant, "_window", recording_window)
    circulant._half_power_windows.cache_clear()
    try:
        for n in (7, 8):
            # The central read and the other coefficients share one half power.
            p = Params(1, n)
            row = expand_power(p)
            assert [coefficient_via_shift(p, l) for l in range(p.degree + 1)] == list(row)
        assert circulant._half_power_windows.cache_info().currsize == 1
    finally:
        circulant._half_power_windows.cache_clear()
    assert exponents == [3, 4]


def test_coefficient_via_shift_range_errors():
    with pytest.raises(ValueError):
        coefficient_via_shift(Params(1, 2), 5)
    with pytest.raises(ValueError):
        coefficient_via_shift(Params(1, 2), -1)


def test_shift_covariance():
    # first row of A(m)^n is the first row of A(0)^n rotated by n*m
    for k in (1, 2):
        for n in (1, 2, 3, 5):
            p = Params(k, n)
            base = power_by_products(build_shifted(p, 0), n).first_row
            for m in range(p.dim):
                shifted = power_by_products(build_shifted(p, m), n).first_row
                assert shifted == tuple(rotate(list(base), n * m)), (k, n, m)


@pytest.mark.parametrize("dim", [3, 5, 9])
def test_permutation_basis_period(dim):
    b = cyclic_permutation(dim)
    assert power_by_products(b, dim).first_row == identity(dim).first_row


@pytest.mark.parametrize("dim", [3, 5, 9])
def test_permutation_basis_additive_law(dim):
    # exponents add under matrix product: B^a B^b = B^{(a+b) mod N}
    b = cyclic_permutation(dim)
    powers = [power_by_products(b, e) for e in range(dim)]
    for a in range(dim):
        for c in range(dim):
            assert (
                multiply(powers[a], powers[c]).first_row
                == powers[(a + c) % dim].first_row
            )


def test_dense_oracle_small_cases():
    for k, n in [(1, 2), (1, 3), (2, 2), (3, 2)]:
        p = Params(k, n)
        expected = dense_power(to_dense(build_central(p)), n)
        assert to_dense(CirculantMatrix(p.dim, matrix_power(p, n))) == expected


def test_dense_entry_layout():
    a = CirculantMatrix(3, (7, 8, 9))
    assert to_dense(a) == [[7, 8, 9], [9, 7, 8], [8, 9, 7]]


def test_to_dense_guard():
    with pytest.raises(ValueError):
        to_dense(identity(65))
    assert len(to_dense(identity(64))) == 64


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(3), identity(5))


def test_matrix_validation():
    with pytest.raises(ValueError):
        CirculantMatrix(0, ())
    with pytest.raises(ValueError):
        CirculantMatrix(3, (1, 0))


@given(
    dim=st.integers(2, 8),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes(dim, data):
    row = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
    a = CirculantMatrix(dim, tuple(data.draw(row)))
    b = CirculantMatrix(dim, tuple(data.draw(row)))
    assert multiply(a, b).first_row == multiply(b, a).first_row


@given(dim=st.integers(2, 8), data=st.data())
@settings(max_examples=40, deadline=None)
def test_multiplication_matches_dense(dim, data):
    row = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
    a = CirculantMatrix(dim, tuple(data.draw(row)))
    b = CirculantMatrix(dim, tuple(data.draw(row)))
    assert to_dense(multiply(a, b)) == dense_product(to_dense(a), to_dense(b))
