"""Colored linear extensions, descent sets and their statistics."""

import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lhall import (ColoredPermutation, InvalidInputError, Polynomial,
                   ResourceLimitError, colored_extensions,
                   count_linear_extensions, descent_profile,
                   eulerian_polynomial, make_antichain, make_chain,
                   refined_eulerian, statistics, verify_identity)
from lhall.colored import _child_eulerian, _descent_polynomial, _parent_tables
from lhall.posets import _augmentations, _sign_ranked_levels
from oracles import (_colored_words, classical_eulerian, colored_perms,
                     descent_sets_frac, eulerian_by_extensions, posets,
                     refined_by_extensions, smaps_within, x_order)

# colored extensions the brute-force oracles may walk per example
ORACLE_BUDGET = 6_000


def test_colored_permutation_validation():
    tau = ColoredPermutation((2, 1), (0, 1))
    assert tau.colors[1 - 1] == 0 and tau.colors[2 - 1] == 1
    with pytest.raises(InvalidInputError):
        ColoredPermutation((1, 1), (0, 0))
    with pytest.raises(InvalidInputError):
        ColoredPermutation((1, 2), (0, -1))


def test_descent_profile_hand_case():
    # s(1)=2, s(2)=2, s(3)=3; word 3 1 2 with colors r(1)=1, r(2)=0, r(3)=2:
    # ratios along the word are 2/3 > 1/2 > 0, and shifting every color by
    # one makes position 1 a tie broken by the labels 3 > 1.
    tau = ColoredPermutation((3, 1, 2), (1, 0, 2))
    s = (2, 2, 3)
    prof = descent_profile(tau, s)
    assert prof.d1 == {1, 2}
    assert prof.d2 == {1, 2}      # r at the first letter is 2, not 0
    assert prof.d3 == {1, 2}
    assert prof.d == {1, 2}       # r at the last letter is 0, no descent at p
    assert prof.d4 == {1, 2}
    stats = statistics(tau, s)
    assert stats == {"des": 2, "comaj": 3, "lhp": 9}


def test_descent_profile_boundary_positions():
    s = (2, 2)
    prof = descent_profile(ColoredPermutation((1, 2), (0, 1)), s)
    assert prof.d1 == set()
    assert prof.d2 == {0}         # first letter has color 0
    assert prof.d == {2}          # last letter has positive color
    assert prof.d4 == {0, 2}
    stats = statistics(ColoredPermutation((1, 2), (0, 1)), s)
    assert stats == {"des": 1, "comaj": 0, "lhp": 1 + 0, "fmaj": 1}


def test_descent_profile_refuses_colors_out_of_range():
    # a color outside 0..s(x)-1 has no rank among the pairs of s
    for pi in ((1, 2), (2, 1)):
        tau = ColoredPermutation(pi, (0, 2))
        with pytest.raises(InvalidInputError, match="element 2"):
            descent_profile(tau, (2, 2))
        with pytest.raises(InvalidInputError, match="element 2"):
            statistics(tau, (2, 2))


@settings(max_examples=250)
@given(colored_perms())
def test_descent_profile_matches_fraction_oracle(case):
    pi, colors, s = case
    prof = descent_profile(ColoredPermutation(pi, colors), s)
    d1, d2, d3, d4, d = descent_sets_frac(pi, colors, s)
    assert (prof.d1, prof.d2, prof.d3, prof.d4, prof.d) == (d1, d2, d3, d4, d)


@settings(max_examples=150)
@given(colored_perms(max_p=5))
def test_statistics_definitions(case):
    pi, colors, s = case
    p = len(pi)
    tau = ColoredPermutation(pi, colors)
    prof = descent_profile(tau, s)
    stats = statistics(tau, s)
    assert stats["des"] == len(prof.d)
    assert stats["comaj"] == sum(p - i for i in prof.d)
    assert stats["lhp"] == sum(colors) + sum(
        sum(s[pi[j] - 1] for j in range(i, p)) for i in prof.d)
    if len(set(s)) == 1:
        k = s[0]
        assert stats["fmaj"] == sum(colors) + k * stats["comaj"]
    else:
        assert "fmaj" not in stats


def test_colored_extensions_count_and_determinism():
    P = make_chain((2, 1))
    s = (2, 3)
    taus = list(colored_extensions(P, s))
    assert len(taus) == count_linear_extensions(P) * 6
    assert all(tau.pi == (2, 1) for tau in taus)
    assert taus == sorted(taus, key=lambda t: (t.pi, t.colors))
    assert len(set(taus)) == len(taus)


def test_colored_extensions_cap():
    with pytest.raises(ResourceLimitError, match="LHALL_MAX_COLORED"):
        list(colored_extensions(make_antichain(10), (5,) * 10))


def test_eulerian_dp_cap():
    P, s = make_antichain(4), (2, 2, 2, 2)
    # 2^4 down-sets x sum(s) = 8 steps: 128 transitions
    for fn in (eulerian_polynomial, refined_eulerian):
        with pytest.raises(ResourceLimitError, match="128.*LHALL_MAX_DP"):
            fn(P, s, max_steps=127)
        assert fn(P, s, max_steps=128)


def test_dp_cap_counts_down_sets_by_chains():
    # 2^18 x 54 steps is over the default cap, but the 18-chain has only 19
    # down-sets; the 18-antichain really has 2^18 and is still refused
    A = eulerian_polynomial(make_chain(tuple(range(1, 19))), (3,) * 18)
    assert sum(A.coeffs) == 3 ** 18
    with pytest.raises(ResourceLimitError,
                       match="14155776 transitions.*LHALL_MAX_DP"):
        eulerian_polynomial(make_antichain(18), (3,) * 18)


def test_eulerian_polynomial_beyond_the_old_extension_cap():
    # 8! * 3^8 = 2.6e8 colored extensions, above LHALL_MAX_COLORED's default
    A = eulerian_polynomial(make_antichain(8), (3,) * 8)
    assert A(1) == factorial(8) * 3 ** 8


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eulerian_polynomial_matches_extension_walk(data):
    P = data.draw(posets(max_p=6))
    s = data.draw(smaps_within(P, ORACLE_BUDGET // count_linear_extensions(P)))
    assert eulerian_polynomial(P, s) == Polynomial(
        tuple(eulerian_by_extensions(P, s)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refined_eulerian_matches_extension_walk(data):
    P = data.draw(posets(max_p=6))
    s = data.draw(smaps_within(P, ORACLE_BUDGET // count_linear_extensions(P)))
    order = x_order(P, s)
    expected = refined_by_extensions(P, s, order)
    refined = refined_eulerian(P, s)
    assert list(refined) == list(order)
    assert refined == {g: Polynomial(tuple(h)) for g, h in expected.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_d3_and_d4_distributions_match_fraction_oracle(data):
    # the |D3| and |D4| calls of EUL2, against the descent sets recomputed
    # with exact division on every colored extension
    P = data.draw(posets(min_p=1, max_p=5))
    s = data.draw(smaps_within(P, ORACLE_BUDGET // count_linear_extensions(P),
                               max_s=3))
    d3, d4 = [0] * (P.p + 1), [0] * (P.p + 2)
    for pi, rpos, _ in _colored_words(P, s):
        colors = [r for _, r in sorted(zip(pi, rpos))]
        _, _, D3, D4, _ = descent_sets_frac(pi, colors, s)
        d3[len(D3)] += 1
        d4[len(D4)] += 1
    assert _descent_polynomial(P, s, shift=1, end=False) == Polynomial(tuple(d3))
    assert _descent_polynomial(P, s, start=True) == Polynomial(tuple(d4))
    assert verify_identity("EUL2", P, s).passed


def test_eulerian_polynomial_frozen_values():
    assert eulerian_polynomial(make_chain((1, 2)), (1, 2)) == Polynomial((1, 1))
    assert eulerian_polynomial(make_antichain(2), (2, 2)) == Polynomial((1, 6, 1))
    assert eulerian_polynomial(make_chain((1, 2, 3)), (1, 2, 3)) == Polynomial((1, 4, 1))
    assert eulerian_polynomial(make_chain((2, 1)), (1, 1)) == Polynomial((0, 1))
    assert eulerian_polynomial(make_antichain(0), ()) == Polynomial((1,))


def test_eulerian_polynomial_global_shape():
    for p in range(1, 5):
        P = make_antichain(p)
        s = tuple(1 + (i % 2) for i in range(p))
        A = eulerian_polynomial(P, s)
        total = 1
        for v in s:
            total *= v
        # every colored extension lands in exactly one t-degree bucket
        assert A(1) == count_linear_extensions(P) * total
        assert A.degree <= p


def test_uncolored_antichain_matches_classical_eulerian():
    for p in range(1, 6):
        A = eulerian_polynomial(make_antichain(p), (1,) * p)
        assert A == Polynomial(tuple(classical_eulerian(p)))


def test_x_order_frozen():
    got = x_order(make_antichain(2), (2, 3))
    assert got == ((0, 1), (0, 2), (1, 2), (1, 1), (2, 2))
    assert x_order(make_antichain(0), ()) == ()


def test_refined_eulerian_buckets():
    P = make_antichain(2)
    refined = refined_eulerian(P, (1, 1))
    assert refined == {(0, 1): Polynomial((1,)), (0, 2): Polynomial((0, 1))}

    s = (2, 3)
    refined = refined_eulerian(P, s)
    assert set(refined) == set(x_order(P, s))
    total = Polynomial(())
    for poly in refined.values():
        total = total + poly
    assert total == eulerian_polynomial(P, s)


def _joined_like_the_dp(parent, children):
    tables = _parent_tables(*parent)
    for P, rho, ideal, l in children:
        s = tuple(v + 1 for v in rho)
        assert (_child_eulerian(tables, ideal, l, s[l - 1])
                == eulerian_polynomial(P, s)), (P, rho)
    return len(children)


def test_child_eulerian_matches_the_dp():
    # every sign-ranked poset on p <= 6 points, joined from its parent's
    # tables at the added element, and the children of 200 of the p = 6
    families = {}
    for P, rho, parent, ideal, l in _sign_ranked_levels(6):
        families.setdefault(id(parent), (parent, []))[1].append(
            (P, rho, ideal, l))
    assert sum(_joined_like_the_dp(parent, children)
               for parent, children in families.values()) == 14_320
    sixes = [(P, rho) for _, children in families.values()
             for P, rho, _, _ in children if P.p == 6]
    for parent in random.Random(7).sample(sixes, 200):
        _joined_like_the_dp(parent, list(_augmentations(*parent)))
