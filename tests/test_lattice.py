"""Lattice point enumeration, Ehrhart counts, bijection and region checks."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lhall import (InvalidInputError, LabeledPoset, Polynomial,
                   ResourceLimitError, SeriesContext, bij_eta, bij_u,
                   colored_extensions, descent_profile, ehrhart_counts,
                   enumerate_points, eulerian_polynomial, eulerian_via_ehrhart,
                   is_partition_point, lattice, make_antichain, make_chain,
                   partitions_leq, partitions_lt, refined_eulerian, roots,
                   scan_gamma, sign_rank, sign_ranked_posets, verify_bijection,
                   verify_cone_decomposition, verify_ordinal_interlacing,
                   verify_recipr)
from lhall.corpus import CORPUS
from lhall.identities import _digits, _region_sum
from oracles import (all_labeled_posets, box_points, corpus_get,
                     ehrhart_by_walk, eulerian_by_extensions, is_point_frac,
                     posets, region_points, region_sum_by_points,
                     sign_ranked_corpus, smaps, smaps_within,
                     times_one_minus_t)


def test_enumerate_points_frozen_cases():
    single = make_antichain(1)
    assert list(partitions_leq(single, (1,), 2)) == [(0,), (1,), (2,)]
    chain = make_chain((1, 2))
    assert list(partitions_leq(chain, (1, 1), 1)) == [(0, 0), (0, 1), (1, 1)]
    rev = make_chain((2, 1))
    assert list(partitions_leq(rev, (1, 1), 1)) == [(1, 0)]
    assert list(partitions_lt(rev, (1, 1), 1)) == []
    assert list(partitions_leq(make_antichain(0), (), 5)) == [()]


def test_enumerate_points_exhaustive_against_oracle():
    for p in range(4):
        for P in all_labeled_posets(p):
            for s in product((1, 2), repeat=p):
                hi = [2 * v for v in s]
                got = list(enumerate_points(P, s, [0] * p, hi))
                assert got == box_points(P, s, [0] * p, hi)
                assert len(set(got)) == len(got)


@settings(max_examples=120)
@given(st.data())
def test_enumerate_points_random_against_oracle(data):
    P = data.draw(posets(max_p=4))
    s = data.draw(smaps(P))
    lo = [data.draw(st.integers(0, 2)) for _ in range(P.p)]
    hi = [v + data.draw(st.integers(0, 3)) for v in lo]
    got = list(enumerate_points(P, s, lo, hi))
    assert got == box_points(P, s, lo, hi)


@settings(max_examples=80)
@given(st.data())
def test_region_wrappers_match_oracle(data):
    P = data.draw(posets(min_p=1, max_p=3))
    s = data.draw(smaps(P))
    n = data.draw(st.integers(0, 3))
    assert list(partitions_leq(P, s, n)) == region_points(P, s, n)
    assert list(partitions_lt(P, s, n)) == region_points(P, s, n, strict=True)
    weak = set(partitions_leq(P, s, n))
    assert set(partitions_lt(P, s, n)) <= weak
    assert weak <= set(partitions_leq(P, s, n + 1))


def test_is_partition_point():
    P = make_chain((2, 1))
    s = (1, 2)
    assert is_partition_point(P, s, (1, 0))
    assert not is_partition_point(P, s, (0, 0))   # needs f(2)/2 < f(1)/1
    with pytest.raises(InvalidInputError):
        is_partition_point(P, s, (0,))


@settings(max_examples=100)
@given(st.data())
def test_is_partition_point_matches_oracle(data):
    P = data.draw(posets(min_p=1, max_p=4))
    s = data.draw(smaps(P))
    f = tuple(data.draw(st.integers(0, 5)) for _ in range(P.p))
    assert is_partition_point(P, s, f) == is_point_frac(P, s, f)


@settings(max_examples=120)
@given(st.data())
def test_qr_roundtrip(data):
    # the digits of the identities' lattice sides are x^q y^r with
    # f = q s + r, r in 0..s-1, or in 1..s when primed (f >= 1)
    p = data.draw(st.integers(1, 5))
    s = tuple(data.draw(st.integers(1, 4)) for _ in range(p))
    for primed in (False, True):
        exps = _digits(s, primed, range(1, p + 1))
        for j, sv in enumerate(s):
            for f in range(10):
                e = exps(j, f)
                if primed and f < 1:
                    assert e is None
                    continue
                assert set(e) == {f"x{j + 1}", f"y{j + 1}"}
                q, r = e[f"x{j + 1}"], e[f"y{j + 1}"]
                assert q >= 0 and q * sv + r == f
                assert 1 <= r <= sv if primed else 0 <= r < sv


@st.composite
def _box_cases(draw):
    """(P, s, lo, hi, ctx, exps, strict): a box whose bounds ignore s,
    exponents that are missing at drawn values inside it, caps that cut
    the totals, and a context with t in any position, or without t."""
    P = draw(posets(max_p=4))
    s = draw(smaps(P))
    lo = [draw(st.integers(0, 4)) for _ in P.elements]
    hi = [a + draw(st.integers(0, 6)) for a in lo]
    holes = {(j, v) for j in range(P.p)
             for v in draw(st.sets(st.integers(lo[j], hi[j]), max_size=2))}
    caps = {"a": draw(st.integers(0, 12)), "b": draw(st.integers(0, 6))}
    if draw(st.booleans()):
        caps["t"] = draw(st.integers(0, 5))
    order = draw(st.permutations(list(caps)))
    ctx = SeriesContext({name: caps[name] for name in order})

    def exps(j, v):
        return None if (j, v) in holes else {"a": v // 2, "b": (v + j) % 3}

    return P, s, lo, hi, ctx, exps, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_box_cases())
def test_region_sum_matches_points_on_random_boxes(case):
    # the frontier walk against one enumerated point at a time, graded by
    # strict or weak entry levels (times 1 - t) or not graded
    P, s, lo, hi, ctx, exps, strict = case
    want = region_sum_by_points(ctx, P, s, lo, hi, exps, strict)
    if "t" in ctx.index:
        want = times_one_minus_t(want)
    walked = _region_sum(ctx, P, s, lo, hi, exps, strict)
    assert walked.ctx is ctx and walked.terms == want.terms


def test_ehrhart_counts_frozen():
    assert ehrhart_counts(make_antichain(1), (1,), 4) == [1, 2, 3, 4, 5]
    assert ehrhart_counts(make_chain((1, 2, 3)), (1, 2, 3), 3) == [1, 8, 27, 64]
    assert ehrhart_counts(make_chain((2, 1)), (1, 1), 4) == [0, 1, 3, 6, 10]
    assert ehrhart_counts(make_antichain(0), (), 3) == [1, 1, 1, 1]


def test_ehrhart_counts_match_enumeration():
    for name in ("chain3-mix-s213", "vee-rev-s221", "n-poset-s1212",
                 "unrankable-s212"):
        _, P, s = corpus_get(name)
        counts = ehrhart_counts(P, s, 4)
        assert counts == [len(list(partitions_leq(P, s, n))) for n in range(5)]


def test_antichain_counts_product_formula():
    # on an antichain the level-n count factors as prod (1 + n s(i))
    for s in ((1, 2), (2, 3, 1), (3, 3, 3, 2)):
        P = make_antichain(len(s))
        for n in range(4):
            expected = 1
            for v in s:
                expected *= 1 + n * v
            assert len(list(partitions_leq(P, s, n))) == expected


def test_eulerian_via_ehrhart_matches_direct_summation():
    for name, P, s in CORPUS:
        assert eulerian_via_ehrhart(P, s) == eulerian_polynomial(P, s), name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eulerian_via_ehrhart_matches_extension_walk(data):
    P = data.draw(posets(max_p=5))
    s = data.draw(smaps(P))
    assert eulerian_via_ehrhart(P, s) == Polynomial(
        tuple(eulerian_by_extensions(P, s)))


def test_eulerian_and_ehrhart_on_small_posets_are_pinned():
    # eulerian_polynomial, refined_eulerian, the counts up to p + 2 and
    # eulerian_via_ehrhart on every labeled poset with 1 <= p <= 4 and every
    # s in {1, 2}^p, 3,670 pairs: byte-stable across changes to the DPs,
    # to the sweep and to the h* extraction
    digest = hashlib.sha256()
    count = 0
    for p in range(1, 5):
        for P in all_labeled_posets(p):
            for s in product((1, 2), repeat=p):
                for value in (eulerian_polynomial(P, s),
                              refined_eulerian(P, s),
                              ehrhart_counts(P, s, p + 2),
                              eulerian_via_ehrhart(P, s)):
                    digest.update(repr(value).encode())
                count += 1
    assert count == 3670
    assert digest.hexdigest() == ("5cb6cfceec1f0b0e24fff02d96bf8a21"
                                  "497383b5b867033c4e5258cefcb612d4")


def test_resource_caps():
    with pytest.raises(ResourceLimitError):
        list(enumerate_points(make_antichain(2), (1, 1), (0, 0), (9, 9),
                              max_points=5))
    # 2^3 down-sets x (3 + 6 * 9) sweep steps = 456 transitions
    with pytest.raises(ResourceLimitError, match="456.*LHALL_MAX_DP"):
        ehrhart_counts(make_antichain(3), (3, 3, 3), 6, max_steps=455)
    assert ehrhart_counts(make_antichain(3), (3, 3, 3), 6,
                          max_steps=456)[6] == 19 ** 3


def test_point_cap_counts_points_yielded():
    # the cap lets exactly max_points points through, the empty point too
    points = enumerate_points(make_antichain(1), (1,), (0,), (9,), max_points=3)
    assert [next(points) for _ in range(3)] == [(0,), (1,), (2,)]
    with pytest.raises(ResourceLimitError, match="more than 3"):
        next(points)
    assert list(enumerate_points(make_antichain(0), (), (), (),
                                 max_points=1)) == [()]
    with pytest.raises(ResourceLimitError, match="more than 0"):
        list(enumerate_points(make_antichain(0), (), (), (), max_points=0))


def test_caps_have_one_meaning_each(monkeypatch):
    # LHALL_MAX_POINTS caps points yielded; the level counts yield none
    P, s = make_antichain(3), (2, 2, 2)
    monkeypatch.setenv("LHALL_MAX_POINTS", "100")
    with pytest.raises(ResourceLimitError, match="LHALL_MAX_POINTS"):
        list(partitions_leq(P, s, 2))
    assert ehrhart_counts(P, s, 2)[2] == 125
    monkeypatch.setenv("LHALL_MAX_DP", "50")
    with pytest.raises(ResourceLimitError, match="LHALL_MAX_DP"):
        ehrhart_counts(P, s, 2)
    monkeypatch.setenv("LHALL_MAX_DP", "abc")
    with pytest.raises(InvalidInputError, match="LHALL_MAX_DP"):
        ehrhart_counts(P, s, 2)


def test_ehrhart_counts_beyond_the_old_point_cap():
    # 361^5 > 6e12 points at n = 40: counted, never enumerated
    counts = ehrhart_counts(make_antichain(5), (9,) * 5, 40)
    assert counts == [(1 + 9 * n) ** 5 for n in range(41)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ehrhart_counts_match_point_walk(data):
    P = data.draw(posets(max_p=6))
    nmax = data.draw(st.integers(0, 3))
    s = data.draw(smaps_within(P, 20_000, factor=lambda v: nmax * v + 1))
    assert ehrhart_counts(P, s, nmax) == ehrhart_by_walk(P, s, nmax)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ehrhart_counts_match_fraction_filter(data):
    P = data.draw(posets(max_p=6))
    nmax = data.draw(st.integers(0, 3))
    s = data.draw(smaps_within(P, 1_500, factor=lambda v: nmax * v + 1))
    assert ehrhart_counts(P, s, nmax) == [len(region_points(P, s, n))
                                          for n in range(nmax + 1)]


def test_bijection_hand_case():
    # chain 1 -< 2, rho = (0, 1), s = (1, 2): the image of f lists the
    # shifted values against the mirrored labels
    rho = (0, 1)
    assert bij_u((0, 1), rho) == (2, 0)
    assert bij_u((0, 0), rho) == (1, 0)
    assert bij_eta(bij_u((1, 2), rho), rho) == (1, 2)

    P = make_chain((1, 2))
    s = (1, 2)
    dual, sd = P.dual(), (2, 1)
    for n in range(3):
        domain = list(partitions_leq(P, s, n))
        image = sorted(bij_u(f, rho) for f in domain)
        target = sorted(partitions_lt(dual, sd, n + 1))
        assert image == target


def test_verify_bijection_reports():
    report = verify_bijection(make_chain((1, 2)), 2)
    assert report.passed and report.details["points"] > 0

    report = verify_bijection(make_chain((2, 1)), 2)
    assert report.status == "skip" and "rank" in report.reason

    report = verify_bijection(LabeledPoset(3, frozenset({(1, 2), (3, 2)})), 1)
    assert report.status == "skip"


def _outside(f, rho):
    return (-1,) * len(f)


def _extra_target(P, s, n, max_points=None):
    return [*partitions_lt(P, s, n, max_points), (-1,) * P.p]


@pytest.mark.parametrize("name, patch, reason", [
    ("bij_u", _outside, "image leaves the dual region"),
    ("bij_eta", _outside, "eta does not undo u"),
    ("partitions_lt", _extra_target, "image misses part of the dual region"),
    # a u that merges two points cannot be undone on both of them
    ("bij_u", lambda f, rho: bij_u((0,) * len(f), rho), "eta does not undo u"),
])
def test_verify_bijection_failure_reasons(monkeypatch, name, patch, reason):
    monkeypatch.setattr(lattice, name, patch)
    report = verify_bijection(make_chain((1, 2, 3)), 2)
    assert report.failed and report.reason == reason


def test_verify_cone_decomposition():
    report = verify_cone_decomposition(make_antichain(2), (1, 1), 2)
    assert report.passed and report.details["extensions"] == 2

    report = verify_cone_decomposition(make_chain((2, 1, 3)), (1, 2, 1), 3)
    assert report.passed and report.details["extensions"] == 1

    report = verify_cone_decomposition(make_antichain(3), (1, 2, 1), 2)
    assert report.passed and report.details["extensions"] == 6


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ehrhart_counts_of_disjoint_union_multiply(data):
    # a point of P next to Q is a point of P and a point of Q
    P = data.draw(posets(max_p=3))
    Q = data.draw(posets(max_p=3))
    sP, sQ = data.draw(smaps(P)), data.draw(smaps(Q))
    union = LabeledPoset(P.p + Q.p, P.covers | {(x + P.p, y + P.p)
                                                for x, y in Q.covers})
    a, b = ehrhart_counts(P, sP, 4), ehrhart_counts(Q, sQ, 4)
    assert ehrhart_counts(union, sP + sQ, 4) == [m * n for m, n in zip(a, b)]


def test_verify_recipr():
    report = verify_recipr(make_chain((1, 2, 3)))
    assert report.passed
    assert report.details["eulerian"] == Polynomial((1, 4, 1))

    assert verify_recipr(make_chain((2, 1))).status == "skip"
    assert verify_recipr(
        LabeledPoset(3, frozenset({(1, 2), (3, 2)}))).status == "skip"


def test_verify_ordinal_interlacing():
    report = verify_ordinal_interlacing((1,), (3,))
    assert report.passed
    family = report.details["family"]
    assert family == [Polynomial((1,)), Polynomial((0, 1)), Polynomial((0, 1))]

    report = verify_ordinal_interlacing((2,), (1,))
    assert report.passed
    assert report.details["eulerian"] == Polynomial((1, 1))

    report = verify_ordinal_interlacing((2, 1), (2, 2))
    assert report.passed

    with pytest.raises(InvalidInputError):
        verify_ordinal_interlacing((2,), (1, 2))
    with pytest.raises(InvalidInputError):
        verify_ordinal_interlacing((0,), (1,))
    with pytest.raises(InvalidInputError):
        verify_ordinal_interlacing((), ())


def _spoiled_family(monkeypatch, members):
    """Make refined_eulerian return these members under its own keys."""
    original = lattice.refined_eulerian

    def spoiled(P, s, max_steps=None):
        return dict(zip(original(P, s, max_steps), members))

    monkeypatch.setattr(lattice, "refined_eulerian", spoiled)


def test_verify_ordinal_interlacing_failures(monkeypatch):
    # (1,) with s = 3 has the keys (0, 1), (1, 1), (2, 1) in X order; every
    # check on the family still runs, however it was built
    f1, f2, f3 = (Polynomial((20, 9, 1)), Polynomial((27, 15, 2)),
                  Polynomial((14, 11, 2)))
    _spoiled_family(monkeypatch, [f1, f2, f3])
    report = verify_ordinal_interlacing((1,), (3,))
    assert report.failed
    assert report.reason == "family member fails to interleave a later one"
    assert report.witness == {"pair": [[0, 1], [2, 1]], "polys": [f1, f3]}

    monkeypatch.undo()
    _spoiled_family(monkeypatch, [Polynomial((1,)), Polynomial((1, 1, 1)),
                                  Polynomial((0, 1))])
    report = verify_ordinal_interlacing((1,), (3,))
    assert report.failed
    assert report.reason == "interleaving needs real-rooted polynomials"

    monkeypatch.undo()
    original = lattice.eulerian_polynomial
    monkeypatch.setattr(lattice, "eulerian_polynomial",
                        lambda P, s, max_steps=None:
                        original(P, s, max_steps) + Polynomial((0, 1)))
    report = verify_ordinal_interlacing((2, 1), (2, 2))
    assert report.failed
    assert report.reason == ("refined family does not sum to the Eulerian "
                             "polynomial")

    # a lone nonzero member is checked like a tested one; past a family
    # certified interlacing, the sum is still checked for real roots
    monkeypatch.undo()
    bad = Polynomial((1, 1, 1))
    _spoiled_family(monkeypatch, [Polynomial(()), bad, Polynomial(())])
    monkeypatch.setattr(lattice, "eulerian_polynomial",
                        lambda P, s, max_steps=None: bad)
    report = verify_ordinal_interlacing((1,), (3,))
    assert report.failed
    assert report.reason == "interleaving needs real-rooted polynomials"
    monkeypatch.setattr(roots, "interlacing_failure", lambda family: None)
    report = verify_ordinal_interlacing((1,), (3,))
    assert report.failed
    assert report.reason == "Eulerian polynomial is not real-rooted"
    assert report.witness == {"eulerian": bad}


def test_all_labeled_posets_counts():
    assert [len(list(all_labeled_posets(p))) for p in range(5)] == [
        1, 1, 3, 19, 219]
    for p in range(5):
        out = list(all_labeled_posets(p))
        assert len(set(out)) == len(out)
        assert all(P.p == p for P in out)
    # the generator that replaced the full enumeration keeps its cap on p
    with pytest.raises(ResourceLimitError, match="LHALL_MAX_POSET_ENUM"):
        sign_ranked_posets(7)
    assert len(list(sign_ranked_posets(3, max_p=3))) == 12
    with pytest.raises(ResourceLimitError, match="cap 2"):
        sign_ranked_posets(3, max_p=2)
    with pytest.raises(InvalidInputError):
        sign_ranked_posets(-1)


def test_sign_ranked_posets_match_the_filtered_enumeration():
    got = list(sign_ranked_posets(5))
    keys = [(P.p, P.covers) for P, _ in got]
    assert len(set(keys)) == len(keys) == 876
    assert set(keys) == {(P.p, P.covers) for P, _ in sign_ranked_corpus(5)}
    # levels come in order of increasing p
    assert [P.p for P, _ in got] == sorted(P.p for P, _ in got)
    for P, rho in got:
        assert sign_rank(P).rho == rho


def test_sign_ranked_posets_equal_validated_construction():
    # the generator builds its posets without LabeledPoset's checks; each
    # must be the validated poset, down to the stored order and closure
    got = list(sign_ranked_posets(6))
    assert len(got) == 14_320
    for P, rho in got:
        Q = LabeledPoset(P.p, P.covers)
        assert (P, P.covers, P._topo, P._above) == (Q, Q.covers, Q._topo,
                                                    Q._above)
        assert rho == sign_rank(Q).rho


def test_sign_ranked_corpus():
    corpus = list(sign_ranked_posets(3))
    assert len(corpus) == 12
    for P, rho in corpus:
        assert all(v >= 0 for v in rho)
    assert (make_chain((1, 2)), (0, 1)) in corpus
    assert all(P != make_chain((2, 1)) for P, _ in corpus)


def test_scan_gamma_small():
    result = scan_gamma(3)
    assert result["checked"] == 12
    assert len(result["records"]) == 12
    assert result["proven_regime_failures"] == []
    assert result["conjecture_failures"] == []
    for rec in result["records"]:
        assert rec["palindromic"] and rec["gamma_nonnegative"]
        assert rec["regime"] in ("proven", "general")


def test_descent_polynomial_matches_dual_d1_polynomial():
    # in the rank regime s = rho + 1, summing t^|D| over L(P, s) agrees with
    # summing t^|D1| over the colored extensions of the mirrored poset
    for P, rho in sign_ranked_posets(4):
        s = tuple(v + 1 for v in rho)
        dual, sd = P.dual(), tuple(reversed(s))
        lhs = [0] * (P.p + 1)
        for tau in colored_extensions(P, s):
            lhs[len(descent_profile(tau, s).d)] += 1
        rhs = [0] * (P.p + 1)
        for tau in colored_extensions(dual, sd):
            rhs[len(descent_profile(tau, sd).d1)] += 1
        assert lhs == rhs, (P, s)

    # outside the regime the two polynomials genuinely differ
    P = make_antichain(2)
    s, sd = (1, 2), (2, 1)
    lhs = sorted(len(descent_profile(t, s).d) for t in colored_extensions(P, s))
    rhs = sorted(len(descent_profile(t, sd).d1)
                 for t in colored_extensions(P.dual(), sd))
    assert lhs == [0, 1, 1, 1] and rhs == [0, 0, 1, 1]
