"""Dense univariate polynomials over exact rationals.

An integral coefficient is stored as an int and any other as a Fraction, so
the integer polynomials that count things never touch Fraction arithmetic;
floats are rejected outright, since every computation in this package is
exact.  Coefficient sequences run from the constant term up, and trailing
zeros are stripped, so the zero polynomial is the empty tuple and has
degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import (InvalidInputError, InternalCheckError, NotPolynomialError,
                     _Frozen)


def _to_fraction(c):
    if isinstance(c, float):
        raise InvalidInputError("floating point coefficients are not allowed")
    try:
        return Fraction(c)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{c!r} is not an exact rational") from None


def _exact(c):
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = _to_fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial(_Frozen):
    __match_args__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coefficient(k) + other.coefficient(k)
                                for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, value):
        value = _exact(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _trusted_polynomial(coeffs):
    """The Polynomial with exactly this tuple of ints as coefficients, which
    must be stripped already (empty, or ending in a nonzero int): nothing
    is checked.  For the counts of the down-set DP, ints by construction."""
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "coeffs", coeffs)
    return poly


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    return Polynomial((v,))


def monomial(k, coeff=1):
    """coeff * t^k."""
    if k < 0:
        raise InvalidInputError("monomial exponent must be nonnegative")
    return Polynomial((0,) * k + (coeff,))


def is_palindromic(poly, center):
    """Whether t^center * poly(1/t) == poly(t).

    The zero polynomial is palindromic for every center.  A center below the
    degree leaves negative powers on the left side, so the answer is False.
    """
    if poly.is_zero():
        return True
    if center < poly.degree:
        return False
    cs = poly.coeffs + (0,) * (center - poly.degree)
    return cs == cs[::-1]


def gamma_vector(poly, d):
    """Coefficients gamma_k in poly = sum_k gamma_k t^k (1+t)^(d-2k).

    Requires poly palindromic with center d; k runs from 0 to d // 2.  The
    expansion is found by eliminating coefficients from the bottom up.
    """
    if not is_palindromic(poly, d):
        raise InvalidInputError("gamma vector needs a polynomial palindromic "
                                f"with center {d}")
    work = list(poly.coeffs) + [0] * (d + 1 - len(poly.coeffs))
    out = []
    for k in range(d // 2 + 1):
        g = work[k]
        out.append(g)
        if g:
            n = d - 2 * k
            for j in range(n + 1):
                work[k + j] -= g * comb(n, j)
    if any(work):
        raise InternalCheckError("gamma elimination left a remainder")
    return tuple(out)


def compose_linear(poly, a, b):
    """poly(a*t + b), exactly."""
    inner = Polynomial((b, a))
    acc = Polynomial()
    for c in reversed(poly.coeffs):
        acc = acc * inner + Polynomial((c,))
    return acc


def interpolate(points):
    """The unique polynomial of degree < len(points) through the given points.

    points is a sequence of (x, y) pairs with distinct x values.  The
    nodes are Fractions, so every divided difference stays exact.
    """
    xs = [_to_fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise InvalidInputError("interpolation nodes must be distinct")
    # divided differences, then Horner back into the monomial basis
    coefs = [_exact(y) for _, y in points]
    n = len(coefs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - j])
    acc = Polynomial()
    for i in range(n - 1, -1, -1):
        acc = acc * Polynomial((-xs[i], 1)) + Polynomial((coefs[i],))
    return acc


def hstar_from_counts(counts, p):
    """Numerator of sum_n counts[n] t^n written over (1 - t)^(p + 1).

    counts must hold the values for n = 0, ..., m with m >= p >= 0.  The
    series is multiplied by (1 - t)^(p + 1) as p + 1 first differences in
    place, each a multiplication by 1 - t truncated at t^m.  Entries of the
    numerator beyond degree p must vanish; a nonzero one means the counts
    do not come from a degree-p polynomial and NotPolynomialError is raised.
    """
    cs = [_exact(c) for c in counts]
    m = len(cs) - 1
    if m < p:
        raise InvalidInputError(f"need counts up to n = {p}, got {m}")
    for _ in range(p + 1):
        for k in range(m, 0, -1):
            cs[k] -= cs[k - 1]
    for k in range(p + 1, m + 1):
        if cs[k] != 0:
            raise NotPolynomialError(
                f"numerator has degree above {p}: coefficient {cs[k]} at t^{k}")
    return Polynomial(tuple(cs[:p + 1]))


def int_coefficients(poly):
    """Clear denominators: integer coefficient list with the same roots."""
    if poly.is_zero():
        return []
    scale = lcm(*(c.denominator for c in poly.coeffs))
    return [int(c * scale) for c in poly.coeffs]
