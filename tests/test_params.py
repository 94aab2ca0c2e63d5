"""Validation and derived quantities of the (k, n) parameter pair."""
import pytest

from cnomial import Params, circulant, exact, spectral


def test_derived_quantities():
    p = Params(2, 3)
    assert p.width == 5
    assert p.degree == 12
    assert p.dim == 13


def test_dim_is_odd():
    for k in range(1, 6):
        for n in range(0, 8):
            assert Params(k, n).dim % 2 == 1


def test_dim_at_least_three_for_positive_n():
    assert Params(1, 1).dim == 3
    # the n=0 extension collapses to the one-element ring
    assert Params(4, 0).dim == 1


@pytest.mark.parametrize("k, n", [(0, 1), (-1, 2), (1, -1), (-3, -3)])
def test_out_of_domain_rejected(k, n):
    with pytest.raises(ValueError):
        Params(k, n)


@pytest.mark.parametrize("k, n", [(1.0, 2), (1, 2.5), ("1", 2), (True, 2), (1, False)])
def test_non_integers_rejected(k, n):
    with pytest.raises(ValueError):
        Params(k, n)


def test_immutable():
    p = Params(1, 1)
    with pytest.raises(AttributeError):
        p.k = 2


@pytest.mark.parametrize(
    "k, n, message",
    [
        (1.0, 2, "k must be an integer, got 1.0"),
        (True, 2, "k must be an integer, got True"),
        (1, "2", "n must be an integer, got '2'"),
        (0, 1, "k must be >= 1, got 0"),
        (1, -1, "n must be >= 0, got -1"),
    ],
)
def test_validation_messages(k, n, message):
    for call in (lambda: Params(k, n), lambda: Params(k=k, n=n)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("route", [exact, circulant, spectral], ids=lambda m: m.__name__)
def test_central_run_checks_its_first_n_before_an_empty_range(route):
    # n = 5..3 is empty, but k = 0 and n = -1 are refused all the same.
    assert route.central_run(1, 5, 3) == []
    with pytest.raises(ValueError, match="k must be >= 1"):
        route.central_run(0, 5, 3)
    with pytest.raises(ValueError, match="n must be >= 0"):
        route.central_run(1, -1, -3)
