"""Circulant construction, powers, trace extraction, shift bookkeeping."""
import pytest
from dense import dense_power, dense_product, to_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import Params, central_coefficient, expand_power
from cnomial import circulant
from cnomial.circulant import (
    CirculantMatrix,
    build_central,
    build_shifted,
    central_via_trace,
    coefficient_via_shift,
    identity,
    matrix_power,
    multiply,
)


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
    a = CirculantMatrix(5, (1, 1, 0, 0, 1))
    assert matrix_power(a, 0).first_row == (1, 0, 0, 0, 0)


def test_matrix_power_square_no_wraparound():
    a = CirculantMatrix(5, (1, 1, 1, 0, 0))
    assert matrix_power(a, 2).first_row == (1, 2, 3, 2, 1)


def test_matrix_power_square_with_wraparound():
    a = CirculantMatrix(5, (1, 1, 0, 0, 1))
    assert matrix_power(a, 2).first_row == (3, 2, 1, 1, 2)


def test_matrix_power_negative_rejected():
    with pytest.raises(ValueError):
        matrix_power(identity(3), -1)


def test_matrix_power_negative_entry_rejected():
    # The packed squaring needs carry-free fields: nonnegative rows only.
    with pytest.raises(ValueError):
        matrix_power(CirculantMatrix(3, (1, -1, 0)), 2)


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


@pytest.mark.parametrize("packed", [False, True], ids=["sparse", "packed"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_step_matches_cyclic_convolution(packed, data):
    # One powering step, X² and X² A, against the full-row convolution, on
    # both sides of the cutover; the product window wraps and folds when it
    # outgrows the ring.
    cut = circulant.PACKED_MIN_WIDTH
    dim = data.draw(st.integers(cut if packed else 1, 3 * cut))
    widths = st.integers(cut, dim) if packed else st.integers(0, min(dim, cut - 1))
    x, xs, xw = windowed_row(data, dim, widths)
    a, as_, aw = windowed_row(data, dim, st.integers(1, dim))
    values = [x[(xs + i) % dim] for i in range(max(xw, 1))]  # the zero row: one zero
    base = [a[(as_ + i) % dim] for i in range(aw)]
    square = circulant._convolve_cyclic(x, x)
    for other, start, expected in (
        (None, 2 * xs, square),
        (base, 2 * xs + as_, circulant._convolve_cyclic(square, a)),
    ):
        bound = sum(x) ** 2 * (sum(a) if other else 1)
        fields = circulant._step(values, other, bound, dim)
        assert len(fields) <= dim
        row = [0] * dim
        for i, value in enumerate(fields):
            row[(start + i) % dim] = value
        assert row == expected


@given(data=st.data(), e=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_matrix_power_matches_products(data, e):
    # The tracked window through every step, narrow, packed and wrapped.
    dim = data.draw(st.integers(1, 60))
    row, _, _ = windowed_row(data, dim, st.integers(0, dim))
    a = CirculantMatrix(dim, tuple(row))
    assert matrix_power(a, e) == power_by_products(a, e)


def test_matrix_power_edge_rows():
    zero = CirculantMatrix(7, (0,) * 7)
    assert matrix_power(zero, 5) == zero
    assert matrix_power(zero, 0) == identity(7)
    single = CirculantMatrix(7, (0, 0, 0, 5, 0, 0, 0))
    assert matrix_power(single, 4).first_row == (0, 0, 0, 0, 0, 625, 0)
    full = CirculantMatrix(30, tuple(range(1, 31)))
    assert matrix_power(full, 5) == power_by_products(full, 5)


def test_matrix_power_beyond_the_digit_limit():
    # Fields of about 6600 digits, past CPython's 4300-digit int/str limit.
    dim = 60
    row = [0] * dim
    for i in range(circulant.PACKED_MIN_WIDTH + 1):
        row[(50 + i) % dim] = 10**2200 + i
    a = CirculantMatrix(dim, tuple(row))
    cubed = matrix_power(a, 3)
    assert max(cubed.first_row).bit_length() > 4300 * 3.32 * 1.5
    assert cubed == power_by_products(a, 3)


def test_packed_steps_without_a_digit_limit(monkeypatch):
    # Pythons before 3.10.7 have no int/str digit limit and no
    # sys.get_int_max_str_digits: the packed steps parse every field by int.
    monkeypatch.delattr(circulant.sys, "get_int_max_str_digits")
    p = Params(3, 40)
    assert central_via_trace(p) == central_coefficient(p)


def test_trace_identity():
    assert trace(identity(5)) == 5


def test_trace_of_squared_central():
    assert trace(CirculantMatrix(5, (3, 2, 1, 1, 2))) == 15


def test_trace_all_ones():
    assert trace(CirculantMatrix(3, (1, 1, 1))) == 3


def test_central_via_trace_examples():
    assert central_via_trace(Params(1, 2)) == 3
    assert central_via_trace(Params(1, 1)) == 1
    assert central_via_trace(Params(2, 2)) == 5


def test_central_via_trace_equals_oracle_on_grid():
    # The half-power trace against the full n-th power, both parities of n.
    for k in range(1, 5):
        for n in range(0, 31):
            p = Params(k, n)
            full = trace(matrix_power(build_central(p), n)) // p.dim
            assert central_via_trace(p) == full == central_coefficient(p), (k, n)


def test_circulant_row_on_grid():
    # C^n has first row b_j = p_{(j + kn) mod N}: the exact row rotated by kn.
    # Past n of about 24 / 2k the windows are wide enough to be packed.
    for k in range(1, 5):
        for n in range(0, 41):
            p = Params(k, n)
            row = expand_power(p).coeffs
            rotated = tuple(row[(j + k * n) % p.dim] for j in range(p.dim))
            assert matrix_power(build_central(p), n).first_row == rotated, (k, n)


def test_trace_route_in_target_regime():
    # Sizes where every squaring but the first is packed.
    for k, n in [(1, 1600), (3, 800), (10, 400)]:
        p = Params(k, n)
        assert central_via_trace(p) == central_coefficient(p), (k, n)
    p = Params(10, 200)
    row = expand_power(p).coeffs
    try:
        for l in (3, 1234, 3100):
            assert coefficient_via_shift(p, l) == row[l], l
    finally:
        circulant._half_power_rows.cache_clear()


def test_coefficient_via_shift_examples():
    assert coefficient_via_shift(Params(1, 2), 2) == 3
    assert coefficient_via_shift(Params(1, 2), 0) == 1
    assert coefficient_via_shift(Params(2, 2), 3) == 4


def test_coefficient_via_shift_full_rows():
    for k in range(1, 4):
        for n in range(1, 9):
            p = Params(k, n)
            row = expand_power(p).coeffs
            for l in range(p.degree + 1):
                assert coefficient_via_shift(p, l) == row[l], (k, n, l)


def test_coefficient_via_shift_any_shift():
    # the read-back offset (l + n*m) mod N undoes whatever shift built the
    # matrix; the route reads the central shift m = N - k at (l - kn) mod N
    for p in (Params(2, 3), Params(2, 4), Params(1, 5)):
        row = expand_power(p).coeffs
        for m in (0, 1, p.k, p.dim - p.k, p.dim - 1):
            power = matrix_power(build_shifted(p, m), p.n).first_row
            for l in range(p.degree + 1):
                assert power[(l + p.n * m) % p.dim] == row[l], (p, m, l)


def test_coefficient_via_shift_never_forms_full_power(monkeypatch):
    # One entry of C^n is one row of the product of the two half powers;
    # the full power, whose last squaring costs the most, is never formed.
    exponents = []

    def recording_power(a, e):
        exponents.append(e)
        return matrix_power(a, e)

    monkeypatch.setattr(circulant, "matrix_power", recording_power)
    circulant._half_power_rows.cache_clear()
    try:
        for n in (7, 8):
            p = Params(1, n)
            row = expand_power(p).coeffs
            assert [coefficient_via_shift(p, l) for l in range(p.degree + 1)] == list(row)
    finally:
        circulant._half_power_rows.cache_clear()
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
            base = matrix_power(build_shifted(p, 0), n).first_row
            for m in range(p.dim):
                shifted = matrix_power(build_shifted(p, m), n).first_row
                assert shifted == tuple(rotate(list(base), n * m)), (k, n, m)


@pytest.mark.parametrize("dim", [3, 5, 9])
def test_permutation_basis_period(dim):
    b = cyclic_permutation(dim)
    assert matrix_power(b, dim).first_row == identity(dim).first_row


@pytest.mark.parametrize("dim", [3, 5, 9])
def test_permutation_basis_additive_law(dim):
    # exponents add under matrix product: B^a B^b = B^{(a+b) mod N}
    b = cyclic_permutation(dim)
    powers = [matrix_power(b, e) for e in range(dim)]
    for a in range(dim):
        for c in range(dim):
            assert (
                multiply(powers[a], powers[c]).first_row
                == powers[(a + c) % dim].first_row
            )


def test_dense_oracle_small_cases():
    for k, n in [(1, 2), (1, 3), (2, 2), (3, 2)]:
        p = Params(k, n)
        a = build_central(p)
        expected = dense_power(to_dense(a), n)
        assert to_dense(matrix_power(a, n)) == expected


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
