"""Coefficientwise identity checks and the refined descent polynomials."""

import hashlib
import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from lhall import (InvalidInputError, Polynomial, ResourceLimitError,
                   Series, SeriesContext,
                   count_linear_extensions, eulerian_polynomial,
                   first_mismatch, kn_descent_polynomial, make_antichain,
                   make_chain, partitions_lt, verify_all, verify_identity,
                   verify_kn, verify_kn1)
from lhall import identities
from lhall.identities import IDENTITY_NAMES, SUITE
from oracles import (all_labeled_posets, box_points, classical_eulerian,
                     corpus_get,
                     kn_by_extensions, level_graded_sums_by_points,
                     lhs_xy_by_points, lhs_xy_t_by_points, posets,
                     series_first_mismatch, series_report_by_sides, smaps,
                     smaps_within, staircase_side_by_extensions,
                     times_one_minus_t)

SAMPLE = ("chain2-nat-s12", "chain2-rev-s21", "antichain2-s22", "vee-s112",
          "n-poset-s1212", "unrankable-s212")


def test_identity_names_cover_the_suite():
    assert set(SUITE) <= set(IDENTITY_NAMES)
    assert len(set(IDENTITY_NAMES)) == len(IDENTITY_NAMES)
    assert set(SUITE) == {"F", "F_PLUS", "G", "R1", "R2", "R3", "R4", "RECI",
                          "COR6", "EUL2", "UQ", "LHP", "QV"}


def test_suite_passes_on_sample_pairs():
    for name in SAMPLE:
        _, P, s = corpus_get(name)
        for report in verify_all(P, s, names=SUITE):
            assert not report.failed, (name, report.identity, report.witness)


def test_cone_series_matches_hand_closed_form():
    # chain 1 -< 2 with two colors on top: summing x^q y^r over the cone
    # gives (1 + y2) / ((1 - x1 x2)(1 - x2))
    P, s = make_chain((1, 2)), (1, 2)
    ctx = SeriesContext({"x1": 3, "x2": 3, "y1": 0, "y2": 1})
    lhs = ctx.zero()
    for f in partitions_lt(P, s, 4):  # the digits q(f) within 3
        (q1, r1), (q2, r2) = divmod(f[0], s[0]), divmod(f[1], s[1])
        lhs = lhs + ctx.monomial({"x1": q1, "x2": q2, "y1": r1, "y2": r2})
    rhs = ((ctx.one() + ctx.monomial({"y2": 1}))
           * ctx.geometric({"x1": 1, "x2": 1})
           * ctx.geometric({"x2": 1}))
    assert first_mismatch(lhs, rhs) is None


def test_positive_cone_series_matches_hand_closed_form():
    # a single element with two colors, positive values, shifted digits:
    # the series is (y + y^2) / (1 - x)
    P, s = make_antichain(1), (2,)
    ctx = SeriesContext({"x1": 3, "y1": 2})
    lhs = ctx.zero()
    for f in range(1, 9):
        q, r = divmod(f - 1, s[0])
        lhs = lhs + ctx.monomial({"x1": q, "y1": r + 1})
    rhs = ((ctx.monomial({"y1": 1}) + ctx.monomial({"y1": 2}))
           * ctx.geometric({"x1": 1}))
    assert first_mismatch(lhs, rhs) is None


def test_reci_smallest_instance():
    report = verify_identity("RECI", make_antichain(1), (2,))
    assert report.passed and report.compared > 0


def test_empty_window_is_a_skip():
    # on the descending 4-chain with s = 1 every point has a value of at
    # least 4, over capx = 3, and the one extension's side carries x1^4:
    # both sides are empty in the window, so nothing is compared
    chain = make_chain((4, 3, 2, 1))
    assert chain.covers == {(2, 1), (3, 2), (4, 3)}
    for name in ("F_PLUS", "R3"):
        report = verify_identity(name, chain, (1, 1, 1, 1), capx=3, capt=5)
        assert report.status == "skip", name
        assert report.compared == 0
        assert report.reason == ("no monomial of either side lies within "
                                 "the caps")
        assert report.details == {"extensions": 1}
    assert verify_identity("F", chain, (1, 1, 1, 1), capx=3).passed


def test_skip_semantics():
    chain = make_chain((1, 2))
    assert verify_identity("COR6", chain, (1, 2)).status == "skip"
    assert verify_identity("QV", chain, (1, 2)).status == "skip"
    assert verify_identity("KN1", make_antichain(2), (1, 2)).status == "skip"
    assert verify_identity("KN", chain, (2, 2)).status == "skip"
    assert verify_identity("RECIPR", make_antichain(2), (2, 2)).status == "skip"
    empty = make_antichain(0)
    assert verify_identity("R2", empty, ()).status == "skip"
    assert verify_identity("R4", empty, ()).status == "skip"
    assert verify_identity("R1", empty, ()).passed


@settings(max_examples=40, deadline=None)
@given(posets(max_p=4).flatmap(lambda P: smaps(P).map(lambda s: (P, s))))
def test_every_extension_side_sums_each_extension_once(case):
    # every identity with an extension side that runs walks all e(P) prod(s)
    # colored extensions
    P, s = case
    expected = count_linear_extensions(P) * prod(s)
    for name in SUITE + ("KN1", "KN"):
        report = verify_identity(name, P, s, capx=2, capt=3)
        if report.status != "skip":
            assert report.details.get("extensions") == expected, (
                name, report.status, report.witness)


def test_verify_identity_validates_input():
    with pytest.raises(InvalidInputError):
        verify_identity("NOPE", make_antichain(1), (1,))
    with pytest.raises(InvalidInputError):
        verify_identity("F", make_antichain(1), (0,))


def test_point_cap_refuses_a_lattice_side_before_the_walk():
    # the point cap counts the level-n region that holds the side's box,
    # (n + 1)^2 points on the chain 1 -< 2 with s = (1, 2): n = capx + 1 = 4
    # for F and n = capt = 5 for R1
    P, s = make_chain((1, 2)), (1, 2)
    with pytest.raises(ResourceLimitError,
                       match=r"^25 lattice points in the level-4 region exceed "
                             r"the cap 1; raise LHALL_MAX_POINTS$"):
        verify_identity("F", P, s, max_points=1)
    with pytest.raises(ResourceLimitError, match="36 lattice points.*cap 35"):
        verify_identity("R1", P, s, max_points=35)
    assert verify_identity("R1", P, s, max_points=36).passed
    # RECI counts on the dual with s reversed, 20 points at level 4
    with pytest.raises(ResourceLimitError, match="20 lattice points.*cap 19"):
        verify_identity("RECI", P, s, max_points=19)
    assert verify_identity("RECI", P, s, max_points=20).passed
    for name in SUITE:
        if name not in ("COR6", "EUL2", "QV"):
            with pytest.raises(ResourceLimitError, match="LHALL_MAX_POINTS"):
                verify_identity(name, P, s, max_points=1)


def test_colored_cap_refuses_an_extension_side_before_the_walk():
    # e(P) * prod(s) = 2 * 2 * 3 = 12 colored extensions on the antichain
    P, s = make_antichain(2), (2, 3)
    for name in SUITE:
        if name != "EUL2":
            with pytest.raises(ResourceLimitError,
                               match=r"^12 colored extensions exceed the cap "
                                     r"11; raise LHALL_MAX_COLORED$"):
                verify_identity(name, P, s, max_count=11)
            assert not verify_identity(name, P, s, max_count=12).failed


def test_dp_cap_reaches_eul2_and_recipr(monkeypatch):
    monkeypatch.delenv("LHALL_MAX_DP", raising=False)
    P = make_chain((1, 2, 3))
    for name, s in (("EUL2", (1, 2, 3)), ("RECIPR", (1, 2, 3))):
        with pytest.raises(ResourceLimitError, match="LHALL_MAX_DP"):
            verify_identity(name, P, s, max_steps=1)
        assert verify_identity(name, P, s).passed
    with pytest.raises(ResourceLimitError, match="LHALL_MAX_DP"):
        verify_all(P, (1, 2, 3), names=("EUL2",), max_steps=1)


def test_eul2_details():
    report = verify_identity("EUL2", make_chain((1, 2)), (1, 2))
    assert report.passed
    assert report.details["minimal_colors_one"]
    assert report.details["a_matches_d3"]
    assert report.details["eulerian"] == Polynomial((1, 1))

    report = verify_identity("EUL2", make_antichain(1), (3,))
    assert report.passed
    assert not report.details["minimal_colors_one"]
    assert not report.details["a_matches_d3"]
    assert report.details["eulerian"] == Polynomial((1, 2))


def test_reports_are_deterministic():
    _, P, s = corpus_get("vee-s112")
    a = verify_identity("R1", P, s).to_json()
    b = verify_identity("R1", P, s).to_json()
    assert a == b


def test_suite_reports_on_small_posets_are_pinned():
    # every SUITE report on every labeled poset with p <= 3 and every s in
    # {1, 2, 3}^p, 7,072 in all: status, compared, details and witness are
    # byte-stable across changes to how either side is built and compared
    digest = hashlib.sha256()
    count = 0
    for p in range(4):
        for P in all_labeled_posets(p):
            for s in itertools.product((1, 2, 3), repeat=p):
                for report in verify_all(P, s, names=SUITE, capx=3, capt=5):
                    digest.update(repr(report.to_json()).encode())
                    count += 1
    assert count == 7072
    assert digest.hexdigest() == ("1f17821ec28e2f813b9ffeb25e631451"
                                  "325c438d8c36cca2c222b6ee5b24b2f0")


def test_kn_wrappers():
    for k in (1, 2):
        for p in (1, 2):
            assert verify_kn1(k, p, capt=4).passed
            assert verify_kn(k, p, capt=4).passed


def test_kn_descent_polynomial_single_color_is_classical():
    for p in range(1, 5):
        weights = (Fraction(3, 2),) * p
        poly = kn_descent_polynomial(1, p, weights)
        assert poly == Polynomial(tuple(classical_eulerian(p)))


def test_kn_descent_polynomial_unit_weights():
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            poly = kn_descent_polynomial(k, p, (Fraction(1),) * p)
            assert poly == eulerian_polynomial(make_antichain(p), (k,) * p)


WEIGHTS = st.one_of(st.just(0), st.integers(1, 3),
                    st.fractions(0, 4, max_denominator=5))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(WEIGHTS, max_size=5 if k < 3 else 4))))
def test_kn_descent_polynomial_matches_extension_walk(case):
    # the oracle walks k^p p! colored permutations, at most 3,840 here
    k, q = case
    assert kn_descent_polynomial(k, len(q), q) == Polynomial(
        tuple(kn_by_extensions(k, len(q), q)))


def test_kn_descent_polynomial_beyond_the_old_extension_cap():
    # 7! * 3^7 = 11,022,480 colored permutations, above LHALL_MAX_COLORED
    poly = kn_descent_polynomial(3, 7, (Fraction(1, 2),) * 7)
    assert poly(1) == factorial(7) * Fraction(1 + 2 + 4, 4) ** 7


def test_kn_descent_polynomial_validates_weights():
    with pytest.raises(InvalidInputError):
        kn_descent_polynomial(2, 2, (0.5, 1))
    with pytest.raises(InvalidInputError):
        kn_descent_polynomial(2, 2, (Fraction(-1, 2), 1))
    with pytest.raises(InvalidInputError):
        kn_descent_polynomial(2, 2, (1,))
    for bad in ("x", None, [1]):
        with pytest.raises(InvalidInputError, match="exact rationals"):
            kn_descent_polynomial(2, 1, (bad,))
    for k in (0, -1):
        for fn in (verify_kn, verify_kn1):
            with pytest.raises(InvalidInputError):
                fn(k, 0)
        with pytest.raises(InvalidInputError):
            kn_descent_polynomial(k, 0, ())



def _oracle_lhs(name, P, points, s, capx, capt):
    """The lattice side of F, R1, R2 or UQ on exponent tuples in the order
    of its context's variables, (x_1..x_p, y_1..y_p[, t]) or (t, u, q),
    from an explicit list of points; returns the names and the side."""
    uq_caps = identities._uq_caps(P, s, capt)
    if name == "UQ":
        names = list(uq_caps)
    else:
        names = ([f"x{x}" for x in P.elements]
                 + [f"y{x}" for x in P.elements] + ["t"] * (name != "F"))
    out = {}
    for f in points:
        q, r = zip(*(divmod(v, sv) for v, sv in zip(f, s))) if f else ((), ())
        if name == "UQ":
            digits = (sum(q), sum(r))
            if digits[0] > uq_caps["u"] or digits[1] > uq_caps["q"]:
                continue
        elif max(q, default=0) > capx:
            continue
        if name == "F":
            levels = [()]
        else:
            entry = ((lambda v, sv: v // sv + 1) if name == "R2"
                     else (lambda v, sv: -(-v // sv)))
            m = max(map(entry, f, s), default=0)
            levels = [(n,) for n in range(m, capt + 1)]
        for t in levels:
            key = t + digits if name == "UQ" else q + r + t
            out[key] = out.get(key, 0) + 1
    return names, out


@pytest.mark.parametrize("name", ["F", "R1", "R2", "UQ"])
def test_dropped_point_gives_the_smallest_witness(monkeypatch, name):
    # losing one lattice point must fail the check at the smallest monomial
    # where the lattice side now differs, with both coefficients; t is the
    # least significant variable of R1 and R2 and the most of UQ, and R2
    # grades by the strict levels
    _, P, s = corpus_get("vee-s112")
    capx, capt = 3, 5
    assert verify_identity(name, P, s, capx, capt).passed
    if name == "F":
        hi = [(capx + 1) * v - 1 for v in s]
    else:
        hi = [capt * v - (name == "R2") for v in s]
    full = box_points(P, s, [0] * P.p, hi)
    dropped = full[3]  # the fourth point in lexicographic order
    original = identities._region_sum
    calls = []

    def drop_one(ctx, P, s, lo, hi, exps, strict=False, **caps):
        # take the dropped point's one term, walked alone, off the side
        side = original(ctx, P, s, lo, hi, exps, strict, **caps)
        alone = original(ctx, P, s, dropped, dropped, exps, strict)
        (key,) = alone.terms
        calls.append(side.terms[key])
        return side - alone

    monkeypatch.setattr(identities, "_region_sum", drop_one)
    report = verify_identity(name, P, s, capx, capt)
    assert report.status == "fail" and len(calls) == 1 and calls[0] >= 1
    # the failed report still says how many extensions it walked
    assert report.details["extensions"] == (count_linear_extensions(P)
                                            * prod(s))

    kept = [f for f in full if f != dropped]
    names, want = _oracle_lhs(name, P, full, s, capx, capt)
    key, ca, cb = series_first_mismatch(
        _oracle_lhs(name, P, kept, s, capx, capt)[1], want)
    monomial = {n: e for n, e in zip(names, key) if e}
    assert report.witness == {"monomial": monomial, "lhs": ca, "rhs": cb}


@st.composite
def _side_cases(draw):
    """(P, s, capx, capt), the largest box of the ten sides kept near 4,000
    points so that the enumerating oracle stays cheap."""
    P = draw(posets(max_p=5))
    capx, capt = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    top = max(capx + 1, capt)
    s = draw(smaps_within(P, 4000, lambda v: top * v + 1, max_s=3))
    return P, s, capx, capt


@settings(max_examples=60, deadline=None)
@given(_side_cases())
def test_lattice_sides_match_point_enumeration(case):
    # the frontier walk against one enumerated point at a time, with digits
    # and entry levels recomputed from their definitions, on the boxes of
    # all ten lattice sides, the graded ones times 1 - t; the tight UQ and
    # LHP caps make digit totals overflow
    P, s, capx, capt = case
    region_sum, digits = identities._region_sum, identities._digits
    ctx = identities._ctx_xy(P, s, capx)
    for positive, primed in ((False, False), (True, False), (True, True)):
        hi = [(capx + 1) * v - 1 + primed for v in s]
        assert region_sum(
            ctx, P, s, [int(positive)] * P.p, hi, digits(s, primed, P.elements)
        ).terms == lhs_xy_by_points(ctx, P, s, capx, positive, primed).terms
    dual, sd, mirrored = P.dual(), tuple(reversed(s)), P.elements[::-1]
    assert region_sum(
        ctx, dual, sd, [1] * P.p, [(capx + 1) * v for v in sd],
        digits(sd, True, mirrored)
    ).terms == lhs_xy_by_points(ctx, dual, sd, capx, True, True,
                                mirrored).terms
    ctx = identities._ctx_xy(P, s, capx, capt)
    for positive, primed, strict in ((False, False, False),
                                     (False, False, True),
                                     (True, False, False),
                                     (True, True, False)):
        assert region_sum(
            ctx, P, s, [int(positive)] * P.p, [capt * v - strict for v in s],
            digits(s, primed, P.elements), strict
        ).terms == times_one_minus_t(lhs_xy_t_by_points(
            ctx, P, s, capt, positive, primed, strict)).terms
    total_s = sum(s)
    lhp_caps = {"t": capt,
                "q": capt * total_s + sum(v - 1 for v in s) + P.p * total_s}
    for caps, names, split in (
            (identities._uq_caps(P, s, capt), "uq", divmod),
            ({"t": capt, "u": 3, "q": 2}, "uq", divmod),
            (lhp_caps, "q", lambda v, sv: (v,)),
            ({"t": capt, "q": 7}, "q", lambda v, sv: (v,))):
        ctx = SeriesContext(caps)
        walked = region_sum(
            ctx, P, s, [0] * P.p, [capt * v for v in s],
            lambda j, v: dict(zip(names, split(v, s[j]))))
        assert walked.terms == times_one_minus_t(level_graded_sums_by_points(
            ctx, P, s, capt, names, split)).terms, (caps, names)


def _extension_sides(P, s, capx, capt):
    """(name, ctx, row, rule, letter, color) for every extension side: the
    descent row of _staircase_side, and the rule that maps the sets (d1,
    d2, d3, d4, d) to (D, e) in the oracle.  The caps of the sides without
    x variables follow capx too, so their letters and colors leave the
    window as well."""
    x_letter = identities._x_letter
    rules = {"F": lambda d: (d[0], 0), "F_PLUS": lambda d: (d[1], 0),
             "G": lambda d: (d[2], 0), "R1": lambda d: (d[4], 0),
             "R2": lambda d: (d[0], 1), "R3": lambda d: (d[3], 0),
             "R4": lambda d: (d[2], 1)}
    for name, (row, shift) in identities._XY_ROWS.items():
        ctx = identities._ctx_xy(P, s, capx, capt if name[0] == "R" else None)
        yield (name, ctx, row, rules[name], x_letter,
               lambda x, r, shift=shift: {f"y{x}": r + shift})
    ascents = frozenset(range(1, P.p))
    yield ("RECI", identities._ctx_xy(P, s, capx), identities._RISES,
           lambda d: (ascents - d[0], 0), x_letter,
           lambda x, r: {f"y{x}": s[x - 1] - r})
    q_ctx = SeriesContext({"t": capt, "u": 2 * capx, "q": 2 * capx})
    for name, letter in (("UQ", lambda x: {"u": 1}),
                         ("LHP", lambda x: {"q": s[x - 1]}),
                         ("KN1", lambda x: {"q": 2})):
        yield (name, q_ctx, identities._D, lambda d: (d[4], 0), letter,
               identities._q_color)
    kn_ctx = SeriesContext({**{f"q{x}": capx for x in P.elements},
                            "t": capt})
    yield ("KN", kn_ctx, identities._D, lambda d: (d[4], 0), lambda x: {},
           lambda x, r: {f"q{x}": r})


@st.composite
def _staircase_cases(draw):
    """(P, s, capx, capt) with p <= 5, s <= 3 and at most about 1,000
    colored extensions, so that the per-extension oracle stays cheap."""
    P = draw(posets(max_p=5))
    s = draw(smaps_within(P, 1000 // count_linear_extensions(P), max_s=3))
    return P, s, draw(st.integers(0, 3)), draw(st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(_staircase_cases())
@example((make_antichain(5), (1, 2, 1, 1, 2), 0, 3))
@example((make_chain((2, 1, 3, 4, 5)), (2, 1, 2, 3, 1), 2, 0))
def test_staircase_sides_match_extension_oracle(case):
    # the transfer of rank falls and the spread divisions against Fraction
    # descent sets and geometric products, the graded sides times 1 - t; the
    # side is subtracted from the dict it is given.  At capx = 0 every x
    # letter is over its cap, and at capt = 0 so is t, so None keys must
    # pass through the staircase
    P, s, capx, capt = case
    for name, ctx, row, rule, letter, color in _extension_sides(P, s, capx,
                                                                capt):
        into = {}
        ext = identities._staircase_side(ctx, P, s, None, row, letter, color,
                                         into)
        want, want_ext = staircase_side_by_extensions(ctx, P, s, rule, letter,
                                                      color)
        if "t" in ctx.index:
            want = times_one_minus_t(want)
        assert {k: -c for k, c in into.items()} == want.terms, name
        assert ext == want_ext == count_linear_extensions(P) * prod(s)


@st.composite
def _series_pairs(draw, where):
    """Two series over t and two or three other variables, t placed where
    given (left out for where None), with small caps (capt = 0 too); the
    second is the first, the first with one or a few coefficients changed,
    or empty, or the first is empty, or both are, and the coefficients are
    positive or of either sign."""
    caps = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    names = [f"v{i}" for i in range(len(caps))]
    if where is not None:
        at = {"first": 0, "middle": 1, "last": len(names)}[where]
        names.insert(at, "t")
        caps.insert(at, draw(st.integers(0, 4)))
    ctx = SeriesContext(dict(zip(names, caps)))
    monomials = st.tuples(*[st.integers(0, c) for c in caps])
    sign = draw(st.sampled_from([st.integers(1, 3), st.integers(-3, 3)]))
    lhs = draw(st.dictionaries(monomials, sign, max_size=12))
    rhs = dict(lhs)
    change = draw(st.sampled_from(["none", "one", "few", "lhs empty",
                                   "rhs empty", "both empty"]))
    if change == "one":
        at = draw(monomials)
        rhs[at] = rhs.get(at, 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    elif change == "few":
        rhs.update(draw(st.dictionaries(monomials, st.integers(-3, 3),
                                        min_size=1, max_size=3)))
    if change in ("lhs empty", "both empty"):
        lhs = {}
    if change in ("rhs empty", "both empty"):
        rhs = {}

    def series(terms):
        return Series(ctx, {ctx.key_of(dict(zip(names, e))): c
                            for e, c in terms.items() if c})

    return series(lhs), series(rhs)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_report_from_one_minus_t_forms_matches_the_sides(where, data):
    # the report rebuilt from both sides times 1 - t is the one comparing
    # the sides themselves: status, compared and witness alike
    lhs, rhs = data.draw(_series_pairs(where))
    got = identities._series_report("X", {}, times_one_minus_t(lhs),
                                    times_one_minus_t(rhs))
    assert got.to_json() == series_report_by_sides("X", {}, lhs,
                                                   rhs).to_json()


@pytest.mark.parametrize("where", [None, "first", "middle", "last"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_report_by_cancellation_matches_the_sides(where, data):
    # the extension side subtracted from the lattice side in place, and
    # rebuilt only when the residual is not zero, reports what comparing the
    # sides themselves reports; the side is handed over in its form times
    # 1 - t when graded, and is subtracted a second time only on a fail
    lhs, rhs = data.draw(_series_pairs(where))
    # the report subtracts from the lattice side it is given: pass a copy
    form = times_one_minus_t if where else lambda a: Series(a.ctx, a.terms)
    calls = []

    def side(terms):
        calls.append(len(terms))
        for key, c in form(rhs).terms.items():
            terms[key] = terms.get(key, 0) - c
        return 7

    got = identities._cancel_report("X", {"x": 1}, form(lhs), side, {"k": 2})
    want = series_report_by_sides("X", {"x": 1}, lhs, rhs,
                                  {"extensions": 7, "k": 2})
    assert got.to_json() == want.to_json()
    assert len(calls) == (1 if got.status == "pass"
                          or not (lhs.terms or rhs.terms) else 2)


@pytest.mark.parametrize("mode", ["pass", "changed", "empty"])
@pytest.mark.parametrize("name", ["F", "COR6"])
def test_identity_reports_by_cancellation_match_the_sides(monkeypatch, name,
                                                          mode):
    # on a walk identity (F) and a product one (COR6): the report equals
    # the one on the sides themselves, built by the point and extension
    # oracles, and the lattice side is built once whether it passes or fails
    _, P, s = corpus_get("antichain2-s22" if name == "COR6" else "vee-s112")
    capx, capt = 3, 5
    graded = name == "COR6"
    ctx = identities._ctx_xy(P, s, capx, capt if graded else None)
    if graded:
        lhs = lhs_xy_t_by_points(ctx, P, s, capt, False, False, False)
        rule, builder = (lambda d: (d[4], 0)), "_lhs_independent_products"
    else:
        lhs = lhs_xy_by_points(ctx, P, s, capx, False, False)
        rule, builder = (lambda d: (d[0], 0)), "_region_sum"
    rhs, ext = staircase_side_by_extensions(
        ctx, P, s, rule, identities._x_letter, lambda x, r: {f"y{x}": r})
    exps = ctx._exponents(min(lhs.terms))
    original, calls = getattr(identities, builder), []

    def changed(ctx, *args, **kwargs):
        # the built side as it is, one larger at exps, or empty, in its
        # form times 1 - t when graded
        side = original(ctx, *args, **kwargs)
        calls.append(side)
        if mode == "empty":
            return ctx.zero()
        delta = ctx.monomial(exps) if mode == "changed" else ctx.zero()
        return side + (times_one_minus_t(delta) if graded else delta)

    monkeypatch.setattr(identities, builder, changed)
    if mode == "empty":
        lhs = ctx.zero()
    elif mode == "changed":
        lhs = lhs + ctx.monomial(exps)
    caps = {"x": capx, "t": capt} if graded else {"x": capx}
    want = series_report_by_sides(name, caps, lhs, rhs, {"extensions": ext})
    got = verify_identity(name, P, s, capx, capt)
    assert got.to_json() == want.to_json()
    assert got.status == ("pass" if mode == "pass" else "fail")
    assert len(calls) == 1
