"""Sturm-chain root isolation, real-rootedness and interleaving."""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from lhall import (InvalidInputError, Polynomial, interlacing_failure,
                   interleaves, is_real_rooted, isolate_real_roots,
                   real_root_count, roots, verify_ordinal_interlacing)
from oracles import classical_eulerian

_t = sympy.Symbol("t")


def _sympy_real_roots(coeffs):
    """Real roots with multiplicity, as exact sympy numbers."""
    expr = sum(int(c) * _t ** k for k, c in enumerate(coeffs))
    return sympy.Poly(expr, _t).real_roots()


def test_is_real_rooted_hand_cases():
    assert is_real_rooted(Polynomial(()))
    assert is_real_rooted(Polynomial((5,)))
    assert is_real_rooted(Polynomial((3, 1)))
    assert is_real_rooted(Polynomial((1, 2, 1)))
    assert is_real_rooted(Polynomial((1, 6, 1)))
    assert not is_real_rooted(Polynomial((1, 1, 1)))
    assert not is_real_rooted(Polynomial((1, 0, 0, 0, 1)))
    assert is_real_rooted(Polynomial((0, 0, 1)))          # double root at 0


def test_real_root_count_and_isolation_hand_cases():
    f = Polynomial((-2, 0, 1))                            # roots at +-sqrt(2)
    assert real_root_count(f) == 2
    intervals = isolate_real_roots(f)
    assert len(intervals) == 2
    assert all(lo < hi for lo, hi in intervals)
    with pytest.raises(InvalidInputError):
        isolate_real_roots(Polynomial(()))
    with pytest.raises(InvalidInputError):
        real_root_count(Polynomial(()))
    assert real_root_count(Polynomial((7,))) == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
def test_real_roots_match_sympy(cs):
    f = Polynomial(tuple(cs))
    assume(not f.is_zero())
    roots = _sympy_real_roots(f.coeffs)
    assert real_root_count(f) == len(set(roots))
    assert is_real_rooted(f) == (len(roots) == f.degree)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=2, max_size=6))
def test_isolating_intervals_match_sympy(cs):
    f = Polynomial(tuple(cs))
    assume(not f.is_zero())
    distinct = sorted(set(_sympy_real_roots(f.coeffs)))
    intervals = isolate_real_roots(f)
    assert len(intervals) == len(distinct)
    for (lo, hi), root in zip(intervals, distinct):
        assert sympy.Rational(lo) < root < sympy.Rational(hi)


@settings(max_examples=150)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_quadratic_discriminant(a, b, c):
    assume(a != 0)
    assert is_real_rooted(Polynomial((c, b, a))) == (b * b - 4 * a * c >= 0)


def test_interleaves_frozen_cases():
    f = Polynomial((2, 1))                                # root -2
    g = Polynomial((3, 4, 1))                             # roots -1, -3
    assert interleaves(f, g)
    assert not interleaves(g, f)
    assert interleaves(f, Polynomial((1, 1)))             # -2 <= -1, same degree
    assert not interleaves(Polynomial((1, 1)), f)
    assert interleaves(Polynomial((1,)), Polynomial((0, 1)))
    assert interleaves(Polynomial((0, 1)), Polynomial((0, 1)))
    assert interleaves(Polynomial(()), g)                 # zero is neutral
    assert interleaves(g, Polynomial(()))
    # multiple roots: (t+1)(t+2) interleaves (t+1)^2 but not the other way
    assert interleaves(Polynomial((2, 3, 1)), Polynomial((1, 2, 1)))
    assert not interleaves(Polynomial((1, 2, 1)), Polynomial((2, 3, 1)))
    # degree can drop by at most one
    assert not interleaves(Polynomial((1,)), Polynomial((3, 4, 1)))


def test_interleaves_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        interleaves(Polynomial((1, 1, 1)), Polynomial((1, 1)))
    with pytest.raises(InvalidInputError):
        interleaves(Polynomial((-1, -1)), Polynomial((1, 1)))


def test_classical_eulerian_family_interlaces():
    family = [Polynomial(tuple(classical_eulerian(p))) for p in range(1, 6)]
    for f, g in zip(family, family[1:]):
        assert is_real_rooted(g)
        assert interleaves(f, g)


def test_interlacing_sequence():
    one, t = Polynomial((1,)), Polynomial((0, 1))
    assert interlacing_failure([one, t, t]) is None
    bad = [Polynomial((3, 4, 1)), Polynomial((2, 1))]
    assert interlacing_failure(bad) == (0, 1)


# --- interleaving against sympy's exact roots ------------------------------

def _descending_roots(f):
    return sorted(_sympy_real_roots(f.coeffs), reverse=True)


def _roots_interleave(alpha, beta):
    """The definition itself, on descending real roots with multiplicity."""
    n, m = len(alpha), len(beta)
    if not m - 1 <= n <= m:
        return False
    return (all(alpha[i] <= beta[i] for i in range(n))
            and all(beta[i + 1] <= alpha[i] for i in range(min(n, m - 1))))


def _oracle_interleaves(f, g):
    if f.is_zero() or g.is_zero():
        return True
    return _roots_interleave(_descending_roots(f), _descending_roots(g))


def _from_factors(factors):
    """prod (b t + a) over the (a, b) pairs: root -a/b, positive leading."""
    f = Polynomial((1,))
    for a, b in factors:
        f = f * Polynomial((a, b))
    return f


_factors = st.tuples(st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _factor_lists(draw, degrees):
    """One factor list per degree, sharing a small pool of linear factors so
    that common and repeated roots are frequent."""
    pool = draw(st.lists(_factors, min_size=1, max_size=4))
    factor = st.one_of(st.sampled_from(pool), _factors)
    return [draw(st.lists(factor, min_size=d, max_size=d)) for d in degrees]


@st.composite
def _interleaving_candidates(draw):
    """(f, g) of degrees 0..8, drawn with deg g - deg f in {-1, 0, 1, 2}.

    Half the draws then deal all their roots, in descending order, to g and
    f in turn, which makes f interleave g, and may replace one root of f;
    the other half keep both root lists as drawn.
    """
    gap = draw(st.sampled_from((-1, 0, 1, 2)))
    n = draw(st.integers(max(0, -gap), min(8, 8 - gap)))
    f, g = draw(_factor_lists((n, n + gap)))
    if draw(st.booleans()):
        merged = sorted(f + g, key=lambda ab: Fraction(ab[0], ab[1]))
        g, f = merged[0::2], merged[1::2]
        if f and draw(st.booleans()):
            f[draw(st.integers(0, len(f) - 1))] = draw(_factors)
    return _from_factors(f), _from_factors(g)


@settings(max_examples=300, deadline=None)
@given(_interleaving_candidates())
def test_interleaves_matches_the_root_definition(pair):
    f, g = pair
    assert interleaves(f, g) == _oracle_interleaves(f, g)


@st.composite
def _families(draw):
    """2..8 members of degree d or d + 1 from a shared pool of factors,
    sorted by degree in half the draws; one in five has a zero member."""
    d = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.sampled_from((d, d + 1)), min_size=2,
                            max_size=8))
    if draw(st.booleans()):
        degrees.sort()
    family = [_from_factors(fs) for fs in draw(_factor_lists(degrees))]
    if draw(st.integers(0, 4)) == 0:
        family[draw(st.integers(0, len(family) - 1))] = Polynomial(())
    return family


@st.composite
def _drifting_families(draw):
    """2..8 members, each with the roots of the one before moved right by
    0, 1/4, 1/2 or 1: neighbours interleave while the shift stays within
    the gaps between roots, and members far apart stop interleaving once
    the shifts add up past a gap."""
    (roots,) = draw(_factor_lists((draw(st.integers(1, 4)),)))
    roots = [Fraction(-a, b) for a, b in roots]
    family = []
    for _ in range(draw(st.integers(2, 8))):
        family.append(_from_factors((-r.numerator, r.denominator)
                                    for r in roots))
        shift = draw(st.sampled_from((0, Fraction(1, 4), Fraction(1, 2), 1)))
        roots = [r + shift for r in roots]
    return family


def _oracle_failure(family):
    """interlacing_failure by the definition: the pairs in order (0, 1),
    (0, 2), (1, 2), (0, 3), ..., each zero member passing, else each member
    needing a positive leading coefficient and then real roots, checked on
    sympy's roots; a lone nonzero member is checked the same way.  Returns
    the first failing pair, None, or the message of the first error."""
    members = [Polynomial(tuple(f)) if not isinstance(f, Polynomial) else f
               for f in family]
    roots = [None if f.is_zero() else _descending_roots(f) for f in members]

    def untestable(k):
        if members[k].coeffs[-1] < 0:
            return "interleaving needs positive leading coefficients"
        if len(roots[k]) != members[k].degree:
            return "interleaving needs real-rooted polynomials"
        return None

    nonzero = [k for k, r in enumerate(roots) if r is not None]
    if len(nonzero) == 1:
        return untestable(nonzero[0])
    for j in range(len(members)):
        for i in range(j):
            if roots[i] is None or roots[j] is None:
                continue
            for k in (i, j):
                if untestable(k):
                    return untestable(k)
            if not _roots_interleave(roots[i], roots[j]):
                return (i, j)
    return None


def _failure_or_message(family):
    try:
        return interlacing_failure(family)
    except InvalidInputError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_families(), _drifting_families()))
def test_interlacing_failure_matches_the_root_definition(family):
    assert interlacing_failure(family) == _oracle_failure(family)


_spoilers = st.sampled_from((
    Polynomial((1, 0, 1)),                     # t^2 + 1, no real root
    Polynomial((2, 2, 1, 1)),                  # (t + 1)(t^2 + 2)
    Polynomial((-1, -1)),                      # negative leading coefficient
    Polynomial((1, -3, -2)),                   # real roots, negative leading
    Polynomial(()),
    (0,),                                      # raw zero tuples
    (0, 0),
    (2, 1),                                    # raw coefficients of t + 2
))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_families(), _drifting_families()), st.data())
def test_spoiled_families_fail_like_the_pair_scan(family, data):
    # a member that cannot be tested, placed before or after the first
    # failing pair, decides whether the pair comes back or the error is
    # raised; raw tuples are canonicalized like polynomials
    for _ in range(data.draw(st.integers(1, 2))):
        family.insert(data.draw(st.integers(0, len(family))),
                      data.draw(_spoilers))
    assert _failure_or_message(family) == _oracle_failure(family)


def test_interlacing_chain_checks_the_ends():
    # neighbours interleave, (t+5)(t+4) and (2t+7)(t+2) do not
    f1 = Polynomial((20, 9, 1))
    f2 = Polynomial((27, 15, 2))
    f3 = Polynomial((14, 11, 2))
    assert interleaves(f1, f2) and interleaves(f2, f3)
    assert interlacing_failure([f1, f2, f3]) == (0, 2)
    assert interlacing_failure([f1, Polynomial(()), f2, f3]) == (0, 3)
    assert interlacing_failure([f1, (0,), f2.coeffs, f3]) == (0, 3)
    assert interlacing_failure([(0,), f1]) is None
    with pytest.raises(InvalidInputError, match="real-rooted"):
        interlacing_failure([Polynomial((1, 0, 1)), (0,)])


def test_a_lone_nonzero_member_is_checked_as_a_pair_would_check_it():
    # no pair tests it, so it raises what a pair with a good member raises,
    # whatever zero members stand around it; a good one is interlacing
    bad = ((Polynomial((1, 1, 1)), "real-rooted"),
           (Polynomial((-1, -1)), "positive leading"),
           ((-2,), "positive leading"))
    for f, message in bad:
        for family in ([f, Polynomial(())], [(0,), f, (0, 0)], [f],
                       [f, Polynomial((1,))]):
            with pytest.raises(InvalidInputError, match=message):
                interlacing_failure(family)
    for f in (Polynomial((1,)), Polynomial((2, 3, 1)), (0, 1)):
        assert interlacing_failure([Polynomial(()), f]) is None
        assert interlacing_failure([f]) is None


def test_interlacing_family_costs_one_test_per_nonzero_member(monkeypatch):
    calls = []
    original = roots._interleaves

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(roots, "_interleaves", counted)
    zero = Polynomial(())
    families = [
        verify_ordinal_interlacing((1, 2, 1), (2, 1, 3)).details["family"],
        verify_ordinal_interlacing((3, 2), (2, 3)).details["family"],
        [zero, Polynomial((1,)), zero, Polynomial((0, 1)), zero],
        [zero, Polynomial((3, 1)), zero],
        [zero, zero],
    ]
    for family in families:
        calls.clear()
        assert interlacing_failure(family) is None
        nonzero = sum(not f.is_zero() for f in family)
        assert len(calls) <= nonzero
        assert all(f and g for f, g in calls)


def _canonical_by_fractions(cs):
    """Denominators cleared by the lcm, then the positive content divided
    out, all on Fractions: the integer key _canonical must give."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    scale = lcm(*(c.denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


_coefficients = st.one_of(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9) | st.fractions(-4, 4, max_denominator=6),
             max_size=6))


@settings(max_examples=300, deadline=None)
@given(_coefficients, st.integers(1, 6))
def test_canonical_matches_cleared_denominators(cs, content):
    # an all-int polynomial skips int_coefficients; its key must still be
    # the primitive part, with the sign of the leading coefficient kept
    cs = [c * content for c in cs]
    want = _canonical_by_fractions(cs)
    assert roots._canonical(Polynomial(tuple(cs))) == want
    assert roots._canonical(cs) == want


def test_canonical_hand_cases():
    assert roots._canonical(Polynomial(())) == ()
    assert roots._canonical((0, 0)) == ()
    assert roots._canonical((6, 0, -4, 0)) == (3, 0, -2)
    assert roots._canonical(Polynomial((-4, 0, -6))) == (-2, 0, -3)
    assert roots._canonical((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert roots._canonical((Fraction(4, 3), 2)) == (2, 3)
    assert all(type(c) is int for c in roots._canonical((Fraction(6, 3), 4)))
