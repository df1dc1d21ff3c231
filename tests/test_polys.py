"""Exact polynomial arithmetic, palindromicity, gamma vectors, h*."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lhall import (InvalidInputError, NotPolynomialError, Polynomial,
                   compose_linear, eulerian_polynomial, gamma_vector,
                   hstar_from_counts, int_coefficients, interpolate,
                   is_palindromic, kn_descent_polynomial, monomial)
from lhall.colored import _unpack
from lhall.polys import _trusted_polynomial
from oracles import posets, smaps

small_polys = st.builds(
    Polynomial, st.lists(st.integers(-9, 9), max_size=6).map(tuple))


def rationals(lo, hi, den=4):
    return st.integers(lo, hi) | st.fractions(lo, hi, max_denominator=den)


rational_polys = st.builds(
    Polynomial, st.lists(rationals(-4, 4), max_size=5).map(tuple))


def test_construction_normalizes():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial(()).degree == -1
    assert Polynomial((0,)).is_zero()
    assert Polynomial((Fraction(1, 2),)).coefficient(0) == Fraction(1, 2)
    with pytest.raises(InvalidInputError):
        Polynomial((0.5,))
    with pytest.raises(InvalidInputError):
        monomial(-1)


def test_arithmetic_and_evaluation():
    f = Polynomial((1, 2, 1))
    g = Polynomial((-1, 1))
    assert f + g == Polynomial((0, 3, 1))
    assert f - f == Polynomial(())
    assert f * g == Polynomial((-1, -1, 1, 1))
    assert (2 + f) == Polynomial((3, 2, 1))
    assert f(0) == 1 and f(1) == 4 and f(Fraction(1, 2)) == Fraction(9, 4)
    assert monomial(3, 2) == Polynomial((0, 0, 0, 2))


@settings(max_examples=120)
@given(small_polys, small_polys, st.integers(-4, 4))
def test_products_evaluate_pointwise(f, g, v):
    assert (f * g)(v) == f(v) * g(v)
    assert (f + g)(v) == f(v) + g(v)


def test_is_palindromic():
    assert is_palindromic(Polynomial((1, 4, 1)), 2)
    assert is_palindromic(Polynomial((1, 1)), 1)
    assert not is_palindromic(Polynomial((1, 1)), 0)  # center below degree
    assert is_palindromic(Polynomial((0, 1)), 2)      # t == t^2 * (1/t)
    assert not is_palindromic(Polynomial((1, 2, 2)), 2)
    assert is_palindromic(Polynomial(()), 5)


def test_gamma_vector_frozen():
    assert gamma_vector(Polynomial((1, 6, 1)), 2) == (1, 4)
    assert gamma_vector(Polynomial((1, 4, 1)), 2) == (1, 2)
    assert gamma_vector(Polynomial((1,)), 0) == (1,)
    assert gamma_vector(Polynomial((0, 1)), 2) == (0, 1)
    with pytest.raises(InvalidInputError):
        gamma_vector(Polynomial((1, 2)), 2)


@settings(max_examples=120)
@given(st.integers(0, 7), st.data())
def test_gamma_vector_roundtrip(d, data):
    gs = tuple(data.draw(st.integers(-5, 5)) for _ in range(d // 2 + 1))
    poly = Polynomial(())
    for k, g in enumerate(gs):
        n = d - 2 * k
        poly = poly + monomial(k, g) * Polynomial(
            tuple(comb(n, j) for j in range(n + 1)))
    assert gamma_vector(poly, d) == gs


def test_compose_linear():
    f = Polynomial((1, 0, 1))
    assert compose_linear(f, -1, 0) == f            # even polynomial
    assert compose_linear(Polynomial((0, 1)), 2, 3) == Polynomial((3, 2))


@settings(max_examples=100)
@given(small_polys, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_compose_linear_evaluates(f, a, b, v):
    assert compose_linear(f, a, b)(v) == f(a * v + b)


@settings(max_examples=100)
@given(small_polys)
def test_interpolate_roundtrip(f):
    nodes = range(max(f.degree + 1, 1))
    assert interpolate([(x, f(x)) for x in nodes]) == f


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(InvalidInputError):
        interpolate([(0, 1), (0, 2)])


def test_hstar_from_counts():
    cubes = [(n + 1) ** 3 for n in range(6)]
    assert hstar_from_counts(cubes, 3) == Polynomial((1, 4, 1))
    simplex = [(n + 2) * (n + 1) // 2 for n in range(5)]
    assert hstar_from_counts(simplex, 2) == Polynomial((1,))
    assert hstar_from_counts([0, 1, 3, 6, 10], 2) == Polynomial((0, 1))
    with pytest.raises(InvalidInputError):
        hstar_from_counts([1, 2], 3)
    with pytest.raises(NotPolynomialError):
        hstar_from_counts([1, 2, 4, 8], 1)


def test_int_coefficients():
    f = Polynomial((Fraction(1, 2), Fraction(1, 3)))
    assert int_coefficients(f) == [3, 2]
    assert int_coefficients(Polynomial(())) == []
    assert int_coefficients(Polynomial((2, 4))) == [2, 4]


def _exact_form(coeffs):
    """Every entry an int when integral and a Fraction otherwise."""
    return all(type(c) is int if c == int(c) else type(c) is Fraction
               for c in coeffs)


@settings(max_examples=100, deadline=None)
@given(rational_polys, rational_polys, rationals(-2, 2), st.data())
def test_coefficients_are_ints_when_integral(f, g, a, data):
    for h in (f, f + g, f - g, -f, f * g, 3 - f, compose_linear(f, a, 1),
              monomial(2, a)):
        assert _exact_form(h.coeffs), h
    nodes = range(f.degree + 1)
    assert _exact_form(interpolate([(x, f(x)) for x in nodes]).coeffs)
    p = max(f.degree, 0)
    assert _exact_form(hstar_from_counts([f(n) for n in range(p + 3)], p).coeffs)
    P = data.draw(posets(max_p=4))
    assert _exact_form(eulerian_polynomial(P, data.draw(smaps(P))).coeffs)
    k, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    q = [data.draw(rationals(0, 3)) for _ in range(m)]
    assert _exact_form(kn_descent_polynomial(k, m, q).coeffs)


@st.composite
def _packed_rows(draw):
    """(packed, bits, chunks): a DP row packed `bits` bits per coefficient,
    chunks its coefficients from the constant term up, the last nonzero."""
    bits = draw(st.integers(1, 40))
    chunks = draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=8))
    if chunks:
        chunks[-1] = draw(st.integers(1, (1 << bits) - 1))
    return sum(c << bits * i for i, c in enumerate(chunks)), bits, chunks


@settings(max_examples=300, deadline=None)
@given(_packed_rows())
def test_unpacked_rows_are_validated_polynomials(row):
    # _unpack builds its result unchecked; it must be the Polynomial that
    # construction with every check gives
    packed, bits, chunks = row
    want = Polynomial(tuple(chunks))
    for got in (_unpack(packed, bits), _trusted_polynomial(tuple(chunks))):
        assert got.coeffs == want.coeffs
        assert all(type(c) is int for c in got.coeffs)
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
